"""Byte identity of forms printing and of the form CLI against
forms_golden.json.

The file holds form_str of volume_contract_chain on the first cases of
test_03's seeded corpus, the poly_str of their coefficient ideal
generators, and the stdout of `form sing` and `form pullback` (text and
--json). Regenerate it only for an intended change of output:
{key: output} for every key, dumped with json.dumps(..., indent=1,
sort_keys=True).
"""

import json
import random
from functools import lru_cache
from pathlib import Path

import pytest

from singscheme.cli import main
from singscheme.forms import coefficient_ideal, form_str, poly_str, volume_contract_chain
from test_acceptance import random_field

GOLDEN_PATH = Path(__file__).with_name("forms_golden.json")
CHAIN_CASES = 10
FORM_FILE = "<two-lines form file>"
TWO_LINES_FORM = (
    "z0*z2 dz1^dz3 - z0*z3 dz1^dz2 - z1*z2 dz0^dz3 + z1*z3 dz0^dz2"
)


@lru_cache(maxsize=None)
def corpus_chains():
    """volume_contract_chain on the first CHAIN_CASES cases of the corpus
    of test_acceptance.test_03_radial_identities, drawn in the same order."""
    rng = random.Random(20260818)
    chains = []
    for _ in range(CHAIN_CASES):
        n = rng.randint(2, 5)
        m = rng.randint(1, n - 1)
        fields = [random_field(rng, n + 1, rng.randint(0, 2)) for _ in range(m)]
        chains.append(volume_contract_chain(n, fields))
    return chains


def _ideal_strs(form):
    if form.is_zero:
        return []
    return [poly_str(g) for g in coefficient_ideal(form).generators]


PULLBACKS = [("3", "1,0", seed) for seed in range(8)] + [
    ("3", "1,1", 0),
    ("3", "2,0", 0),
    ("4", "1,0,0", 0),
    ("4", "2,0,0", 0),
]

CLI_CASES = {
    "form sing two-lines": ("form", "sing", "--input", FORM_FILE),
    "form sing two-lines --json": ("form", "sing", "--input", FORM_FILE, "--json"),
    **{
        f"form pullback --n {n} --field-degrees {degrees} --seed {seed}{flag}": (
            "form", "pullback", "--n", n, "--field-degrees", degrees,
            "--seed", str(seed), *flag.split(),
        )
        for n, degrees, seed in PULLBACKS
        for flag in ("", " --json")
    },
}

LIBRARY_CASES = {
    **{f"chain {i}": lambda i=i: form_str(corpus_chains()[i]) for i in range(CHAIN_CASES)},
    **{f"ideal {i}": lambda i=i: _ideal_strs(corpus_chains()[i]) for i in range(CHAIN_CASES)},
}


@pytest.mark.parametrize("key", sorted([*CLI_CASES, *LIBRARY_CASES]))
def test_matches_recorded_output(key, capsys, monkeypatch, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    if key in LIBRARY_CASES:
        assert LIBRARY_CASES[key]() == golden[key]
        return
    monkeypatch.setenv("SINGSCHEME_COLOR", "0")
    form_file = tmp_path / "two_lines.form"
    form_file.write_text(TWO_LINES_FORM)
    argv = [str(form_file) if a == FORM_FILE else a for a in CLI_CASES[key]]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (0, golden[key], "")
