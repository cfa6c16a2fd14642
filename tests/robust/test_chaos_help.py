"""``chaos run --help`` states each flag's per-scenario defaults, generated
from the scenario registry. Every stated default must be the value the
run actually uses — including defaults that depend on a switch
(``heal 100 (40 with --blackout)``) and per-scenario caps."""

import re

import pytest

from repro.robust import cli
from repro.scenarios import SCENARIOS


class _Used(Exception):
    """Raised by the patched site builder, carrying the run's parameters."""


@pytest.fixture
def used_params(monkeypatch):
    """argv -> the parameters ``chaos run`` hands the scenario."""
    def build(self, seed, p):
        raise _Used(p)

    for sc in SCENARIOS.values():
        monkeypatch.setattr(type(sc), "build", build)

    def used(*argv):
        with pytest.raises(_Used) as exc:
            cli.main(["run", *argv])
        return exc.value.args[0]

    return used


def _stated_defaults(capsys, flag):
    """The ``default: ...`` entries of *flag*'s help, one per scenario."""
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    start = text.index("default: ", text.index(f"{flag} {flag[2:].upper()} ")) + 9
    depth, end = 0, start
    while depth >= 0:  # up to the parenthesis that closes "(default: "
        depth += {"(": 1, ")": -1}.get(text[end], 0)
        end += 1
    entry = re.compile(r"(\w+) ([\d.]+)(?: \(([\d.]+) with (--[\w-]+)\))?"
                       r"(?:, at most (\d+))?$")
    return [entry.match(part).groups() for part in text[start:end - 1].split("; ")]


@pytest.mark.parametrize("flag,param", [(f, p) for f, p, _, _ in cli.VALUE_FLAGS])
def test_stated_defaults_are_the_defaults_runs_use(capsys, used_params, flag, param):
    stated = _stated_defaults(capsys, flag)
    assert [s[0] for s in stated] == [
        sc.name for sc in SCENARIOS.values() if param in sc.defaults]
    for name, value, alt, switch, cap in stated:
        assert used_params("--scenario", name)[param] == float(value)
        if alt is not None:
            assert used_params("--scenario", name, switch)[param] == float(alt)
        if cap is not None:
            over = str(int(cap) + 2)
            assert used_params("--scenario", name, flag, over)[param] == int(cap)


def test_switches_are_tagged_with_their_scenario(capsys, used_params):
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for sc in SCENARIOS.values():
        for sw in sc.switches:
            assert f"{sw.name} [{sc.name}]" in text
            assert used_params("--scenario", sc.name, sw.name)[sw.param] == sw.value
