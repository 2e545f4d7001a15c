"""End-to-end tests for the command line front end.

Everything runs in-process through main(argv) so stdout/stderr and exit
codes are asserted directly; SINGSCHEME_COLOR=0 keeps output stable.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from singscheme import chow, cohomology
from singscheme.chase import MAX_CHASE_ENTRIES, replay_trace
from singscheme.cli import MAX_TWIST_RANGE, main, parse_sheaf
from singscheme.cohomology import CohomologyTable, CotangentPower, DimValue, LineBundle, VirtualSheaf, table, tangent_sheaf
from singscheme.chow import MAX_CLOSED_FORM_N, MAX_LITERAL_DIGITS, pullback_degree, singular_degree_formula
from singscheme.cohomology import MAX_SWEEP_WORK, MAX_TABLE_ENTRIES
from singscheme.criteria import InapplicableError, evans_griffith, horrocks, kpr
from singscheme.forms import MAX_DEGREE, MAX_NESTING, MAX_PARSE_WORK, MAX_PRODUCT_WORK, MAX_TERMS, MAX_VARIABLES, HomogeneousPoly, PolyVectorField, form_str, volume_contract_chain
from test_chase import GOLDEN_SPECS

TWO_LINES_FORM = (
    "z0*z2 dz1^dz3 - z0*z3 dz1^dz2 - z1*z2 dz0^dz3 + z1*z3 dz0^dz2"
)


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("SINGSCHEME_COLOR", "0")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestDegreeCommands:
    def test_degree_example(self, capsys):
        code, out, err = run(capsys, "degree", "--n", "3", "--r", "1", "--d-list", "1")
        assert (code, out, err) == (0, "15\n", "")

    def test_degree_agrees_with_library(self, capsys):
        code, out, _ = run(capsys, "degree", "--n", "5", "--r", "2", "--d-list", "2,3")
        assert code == 0
        assert int(out) == singular_degree_formula(5, 2, (2, 3))

    def test_pullback_degree(self, capsys):
        code, out, _ = run(capsys, "pullback-degree", "--n", "3", "--k", "2", "--d", "2")
        assert (code, out) == (0, "15\n")
        assert int(out) == pullback_degree(3, 2, 2)

    def test_entry_count_must_match_the_rank(self, capsys):
        got = run(capsys, "degree", "--n", "3", "--r", "2", "--d-list", "1")
        assert got == (1, "", "error: expected 2 twist entries, got 1\n")

    def test_domain_error_exits_one(self, capsys):
        code, _, err = run(capsys, "degree", "--n", "3", "--r", "9",
                           "--d-list", "1,1,1,1,1,1,1,1,1")
        assert code == 1
        assert err.startswith("error:")

    def test_list_entry_with_too_many_digits(self, capsys):
        code, out, err = run(capsys, "degree", "--n", "3", "--r", "1", "--d-list", "1" * 5000)
        message = f"a list entry of 5000 digits exceeds the cap of {MAX_LITERAL_DIGITS} digits"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_degree_too_long_to_print(self, capsys):
        # an entry of 4,300 ones is under the literal cap, but the degree,
        # cubic in it, has about 12,900 digits
        code, out, err = run(capsys, "degree", "--n", "3", "--r", "1", "--d-list", "1" * MAX_LITERAL_DIGITS)
        message = f"the degree is too long to print: more than {MAX_LITERAL_DIGITS} digits"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_degree_refused_by_its_work_cap_before_summing(self, capsys, monkeypatch):
        # five entries of 4,299 digits at n = 300: r x (n - r + 1) x digits
        # is far over chow.MAX_DEGREE_WORK, so the sums never start
        def summed(*args):
            raise AssertionError("the sums ran")

        monkeypatch.setattr(chow, "_complete_homogeneous", summed)
        entry = "9" * (MAX_LITERAL_DIGITS - 1)
        code, out, err = run(capsys, "degree", "--n", "300", "--r", "5", "--d-list", ",".join([entry] * 5))
        message = f"degree formula work r x (n - r + 1) x (digits of the largest |d_i|) = 5 x 296 x 4299 exceeds the cap of {chow.MAX_DEGREE_WORK}"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_degree_work_counts_the_entries(self, capsys, monkeypatch):
        # 150 entries of 284 digits at n = 300: (n - r + 1) x digits is
        # under the cap, r x (n - r + 1) x digits far over it
        def summed(*args):
            raise AssertionError("the sums ran")

        monkeypatch.setattr(chow, "_complete_homogeneous", summed)
        entry = "-" + "9" * 284
        code, out, err = run(capsys, "degree", "--n", "300", "--r", "150", f"--d-list={','.join([entry] * 150)}")
        message = f"degree formula work r x (n - r + 1) x (digits of the largest |d_i|) = 150 x 151 x 284 exceeds the cap of {chow.MAX_DEGREE_WORK}"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_pullback_degree_refused_by_its_bound_before_summing(self, capsys, monkeypatch):
        # for d >= 2 the degree is at least d^(k+1), here of 300 * 15 digits
        def summed(*args):
            raise AssertionError("the sum ran")

        monkeypatch.setattr(chow, "pullback_degree", summed)
        code, out, err = run(capsys, "pullback-degree", "--n", "300", "--k", "299", "--d", str(10**15))
        message = f"the degree is too long to print: more than {MAX_LITERAL_DIGITS} digits"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_pullback_degree_too_long_to_print(self, capsys):
        # at d = 10^2150, (k+1) log10 d = 4300 is not over the cap, but d^2
        # has 4,301 digits: the exact check after the sum refuses it. At
        # d - 1 the degree has exactly 4,300 digits and prints.
        d = 10**2150
        code, out, err = run(capsys, "pullback-degree", "--n", "3", "--k", "1", "--d", str(d))
        message = f"the degree is too long to print: more than {MAX_LITERAL_DIGITS} digits"
        assert (code, out, err) == (1, "", f"error: {message}\n")
        code, out, err = run(capsys, "pullback-degree", "--n", "3", "--k", "1", "--d", str(d - 1))
        assert (code, out, err) == (0, f"{d * d - d + 1}\n", "")
        assert len(out) == MAX_LITERAL_DIGITS + 1

    def test_malformed_list_entry(self, capsys):
        for text in ("1,x", "1/2", "1,--1", "+"):
            code, out, err = run(capsys, "degree", "--n", "3", "--r", "1", "--d-list", text)
            assert (code, out, err) == (1, "", f"error: bad integer list {text!r}\n")
        code, out, err = run(capsys, "degree", "--n", "3", "--r", "1", "--d-list", ",")
        assert (code, out, err) == (1, "", "error: empty integer list\n")


class TestSheafGrammar:
    def test_spec_example_parses(self):
        sheaf = parse_sheaf("O(-2)^3+Om(1,4)", 4)
        assert sheaf.rank == 3 + 4

    def test_tangent_and_powers(self):
        assert parse_sheaf("T", 5).rank == 5
        assert parse_sheaf("T^2+O(0)", 5).rank == 11

    def test_omega_zero_is_a_line_bundle(self):
        assert parse_sheaf("Om(0,3)", 4).rank == 1

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="grammar"):
            parse_sheaf("Q(3)", 3)
        with pytest.raises(ValueError, match="vanishes"):
            parse_sheaf("Om(5,0)", 3)
        with pytest.raises(ValueError, match="at least 1"):
            parse_sheaf("O(1)^0", 3)

    @pytest.mark.parametrize(
        "spec, what",
        [
            ("O({})", "a twist"),
            ("O(-{})", "a twist"),
            ("Om(1,{})", "a twist"),
            ("Om({},1)", "a cotangent power"),
            ("O(1)^{}", "a multiplicity"),
        ],
    )
    def test_integer_with_too_many_digits(self, capsys, spec, what):
        spec = spec.format("1" * 5000)
        message = f"{what} of 5000 digits exceeds the cap of {MAX_LITERAL_DIGITS} digits"
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_sheaf(spec, 3)
        code, out, err = run(capsys, "cohomology", "--n", "3", "--sheaf", spec, "--twists=0..1")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_one_from_pairs_call_per_spec(self, monkeypatch):
        calls = []
        build = VirtualSheaf.from_pairs
        monkeypatch.setattr(VirtualSheaf, "from_pairs", staticmethod(lambda n, pairs: calls.append(n) or build(n, pairs)))
        # repeated atoms merge, and Om(0,k) and Om(n,k) fold into line bundles
        assert parse_sheaf("O(1)+O(1)^2+T+Om(1,-1)+T", 3) == build(
            3, [(LineBundle(1), 3), (CotangentPower(1, -1), 1), (CotangentPower(2, 4), 2)]
        )
        assert parse_sheaf("Om(0,2)+Om(4,1)+O(-2)^3+Om(2,1)", 4) == build(
            4, [(LineBundle(-4), 1), (LineBundle(-2), 3), (LineBundle(2), 1), (CotangentPower(2, 1), 1)]
        )
        assert parse_sheaf("+".join(f"O({a})" for a in range(1, 1001)), 5).rank == 1000
        assert calls == [3, 4, 5]

    def test_many_summands_build_at_once(self, capsys):
        # 15,000 distinct summands, 123,893 characters: folding a sum a
        # summand at a time re-sorted every atom seen so far, about 52 s
        spec = "+".join(f"O({a})" for a in range(1, 15_001))
        start = time.perf_counter()
        code, out, err = run(capsys, "cohomology", "--n", "3", "--sheaf", spec, "--twists=0..0")
        assert time.perf_counter() - start < 2
        assert (code, err) == (0, "")
        assert out.startswith(f"h^q(F(t)) on P^3 for F = {spec}\n")

    def test_cli_reports_grammar_error(self, capsys):
        code, _, err = run(capsys, "cohomology", "--n", "3", "--sheaf", "Q(3)",
                           "--twists", "0..1")
        assert code == 1
        assert "grammar" in err

    @pytest.mark.parametrize("spec", ["", " ", "+", "O(1)+"])
    def test_empty_summand_names_the_grammar(self, capsys, spec):
        # "".split("+") is [""], so every empty summand meets the grammar
        code, out, err = run(capsys, "cohomology", "--n", "3", "--sheaf", spec, "--twists=0..1")
        grammar = "grammar: O(a), Om(p,k), T, sums with '+', powers with '^m'"
        assert (code, out, err) == (1, "", f"error: bad sheaf spec ''; {grammar}\n")


class TestCohomologyCommand:
    def test_text_grid(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--n", "3",
                           "--sheaf", "O(-1)+O(-2)", "--twists=-1..2")
        assert code == 0
        assert out == (
            "h^q(F(t)) on P^3 for F = O(-2)+O(-1)\n"
            "  t  -1  0  1  2\n"
            "h^0   0  0  1  5\n"
            "h^1   0  0  0  0\n"
            "h^2   0  0  0  0\n"
            "h^3   0  0  0  0\n"
        )

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--n", "4", "--sheaf", "T",
                           "--twists=-6..-1", "--json")
        assert code == 0
        back = CohomologyTable.loads(out)
        assert back.dumps() == table(tangent_sheaf(4), -6, -1).dumps()

    def test_empty_range_rejected(self, capsys):
        code, _, err = run(capsys, "cohomology", "--n", "3", "--sheaf", "T",
                           "--twists=2..1")
        assert code == 1
        assert "empty twist range" in err

    def test_malformed_range_rejected(self, capsys):
        code, out, err = run(capsys, "cohomology", "--n", "3", "--sheaf", "T", "--twists=1-2")
        assert (code, out, err) == (1, "", "error: bad twist range '1-2'; expected lo..hi\n")

    @pytest.mark.parametrize("argv", [
        ("--n", "-1", "--sheaf", "O(1)", "--twists=-3..1"),
        ("--n", "0", "--sheaf", "T", "--twists=0..1"),
    ])
    def test_ambient_dimension_below_one_rejected(self, capsys, argv):
        code, out, err = run(capsys, "cohomology", *argv)
        assert (code, out, err) == (1, "", "error: ambient dimension must be positive\n")

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_value_too_long_to_print(self, capsys, flags):
        # h^0(O(a)) on P^3 is C(a+3, 3): about 12,900 digits for a twist of
        # 4,300 ones, more than str() converts.
        code, out, err = run(capsys, "cohomology", "--n", "3", "--sheaf",
                             f"O({'1' * MAX_LITERAL_DIGITS})", "--twists=0..0", *flags)
        message = f"h^0(t=0) is too long to print: more than {MAX_LITERAL_DIGITS} digits"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_longest_printable_value_is_printed(self, capsys, flags):
        # h^0(O(0)^m) on P^1 at t=0 is m: 4,300 nines print, one more does not.
        sheaf = f"O(0)^{'9' * MAX_LITERAL_DIGITS}"
        argv = ("cohomology", "--n", "1", "--twists=0..0", *flags)
        code, out, err = run(capsys, *argv, "--sheaf", sheaf)
        assert (code, err) == (0, "")
        assert "9" * MAX_LITERAL_DIGITS in out
        code, out, err = run(capsys, *argv, "--sheaf", sheaf + "+O(0)")
        message = f"h^0(t=0) is too long to print: more than {MAX_LITERAL_DIGITS} digits"
        assert (code, out, err) == (1, "", f"error: {message}\n")


    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_too_long_table_refused_before_building(self, capsys, monkeypatch, flags):
        # h^0 at the top twist is the largest value of row 0; building the
        # table first took about 24 s and 361 MB
        def never(*args):
            raise AssertionError("the table was built")
        monkeypatch.setattr(cohomology, "table", never)
        t = 10**4000
        start = time.perf_counter()
        code, out, err = run(capsys, "cohomology", "--n", "99", "--sheaf", "O(0)", f"--twists={t}..{t + 999}", *flags)
        assert time.perf_counter() - start < 2
        message = f"h^0(t={t + 999}) is too long to print: more than {MAX_LITERAL_DIGITS} digits"
        assert (code, out, err) == (1, "", f"error: {message}\n")
        code, out, err = run(capsys, "cohomology", "--n", "3", "--sheaf", "O(0)", f"--twists=-{t + 9}..-{t}", *flags)
        message = f"h^3(t=-{t + 9}) is too long to print: more than {MAX_LITERAL_DIGITS} digits"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_long_values_below_the_limit_print(self, capsys, flags):
        # about 3,000 digits at t = 10^1000
        t = 10**1000
        code, out, err = run(capsys, "cohomology", "--n", "3", "--sheaf", "O(0)", f"--twists={t}..{t + 9}", *flags)
        assert (code, err) == (0, "")
        assert str((t + 9 + 3) * (t + 9 + 2) * (t + 9 + 1) // 6) in out


class TestTwistRangeCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ("cohomology", "--n", "3", "--sheaf", "T"),
            ("chase", "--n", "3", "--tangent=0,0"),
        ],
    )
    def test_huge_range_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--twists=-100000000..100000000")
        assert code == 1
        assert out == ""
        assert f"at most {MAX_TWIST_RANGE}" in err

    @pytest.mark.parametrize("twists", ["0..{}", "-{}..0"])
    def test_twist_with_too_many_digits(self, capsys, twists):
        code, out, err = run(capsys, "cohomology", "--n", "3", "--sheaf", "T",
                             "--twists=" + twists.format("1" * 5000))
        message = f"a twist of 5000 digits exceeds the cap of {MAX_LITERAL_DIGITS} digits"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_cap_is_inclusive(self, capsys):
        argv = ("cohomology", "--n", "1", "--sheaf", "O(0)")
        code, _, _ = run(capsys, *argv, f"--twists=1..{MAX_TWIST_RANGE}")
        assert code == 0
        code, _, err = run(capsys, *argv, f"--twists=0..{MAX_TWIST_RANGE}")
        assert code == 1
        assert f"holds {MAX_TWIST_RANGE + 1} twists" in err


class TestTableEntryCap:
    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_wide_table_refused_before_building(self, capsys, flags):
        # 301 rows of 10,000 twists each, every twist inside MAX_TWIST_RANGE
        argv = ("cohomology", "--n", "300", "--sheaf", "O(0)", "--twists=-4999..5000", *flags)
        code, out, err = run(capsys, *argv)
        message = f"the table would hold 3010000 entries, over the cap of {MAX_TABLE_ENTRIES}"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_count_comes_before_the_print_check(self, capsys, monkeypatch, flags):
        # over both caps: the print pre-check would compute h^0 at t = T + 9999,
        # about 1.2 million digits, where the count reads the windows alone
        def never(*args):
            raise AssertionError("a row was read")
        monkeypatch.setattr(VirtualSheaf, "h_row", never)
        t = 10**4000
        code, out, err = run(capsys, "cohomology", "--n", "300", "--sheaf", "O(0)", f"--twists={t}..{t + 9999}", *flags)
        message = f"the table would hold 3010000 entries, over the cap of {MAX_TABLE_ENTRIES}"
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestClosedFormCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ("degree", "--r", "1", "--d-list", "1"),
            ("pullback-degree", "--k", "1", "--d", "2"),
            ("cohomology", "--sheaf", "O(0)", "--twists=0..0"),
            ("split-check", "--sheaf", "T", "--criterion", "eg"),
            ("chase", "--tangent=-1,-1"),
            ("regularity", "--from-chase", "tangent:-1,-1"),
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("n", [0, MAX_CLOSED_FORM_N + 1, 10**9])
    def test_out_of_range_exits_one(self, capsys, argv, n):
        # one owner of 1 <= n <= MAX_CLOSED_FORM_N, so one message each side
        code, out, err = run(capsys, *argv, "--n", str(n))
        message = f"ambient dimension {n} exceeds the cap of {MAX_CLOSED_FORM_N}" if n else "ambient dimension must be positive"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_pfaff_data_over_the_cap(self, capsys):
        # Pfaff data of rank r with m twists lives on P^{m + r}
        twists = ",".join(["-2"] * (MAX_CLOSED_FORM_N - 1))
        code, out, err = run(capsys, "chase", f"--pfaff={twists}", "--r", "2")
        message = f"ambient dimension {MAX_CLOSED_FORM_N + 1} exceeds the cap of {MAX_CLOSED_FORM_N}"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, k, distinct, bound",
        [
            (("--tangent=-1,-100,-10000,-1000000,-100000000", "--n", "300"), 295, 5, 96_282_284_670),
            ((f"--pfaff={','.join(str(-(i * i + 2)) for i in range(297))}", "--r", "3"), 3, 297, 13_231_647),
        ],
        ids=["tangent", "pfaff"],
    )
    def test_sym_sweep_over_the_cap(self, capsys, argv, k, distinct, bound):
        # refused before the sweep builds a layer: the tangent one would run
        # out of memory, the Pfaff one ran past a minute
        code, out, err = run(capsys, "chase", *argv)
        message = f"a degree-{k} power sweep over {distinct} distinct twists bounds {bound} steps, over the cap of {MAX_SWEEP_WORK}"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_cap_is_inclusive(self, capsys):
        code, out, _ = run(capsys, "degree", "--n", str(MAX_CLOSED_FORM_N), "--r", "1", "--d-list", "1")
        assert code == 0
        assert int(out) == singular_degree_formula(MAX_CLOSED_FORM_N, 1, (1,))


class TestSplitCheckCommand:
    def test_split_bundle_passes_all(self, capsys):
        for crit in ("horrocks", "eg", "kpr"):
            code, out, _ = run(capsys, "split-check", "--n", "4",
                               "--sheaf", "O(-2)^2+O(1)", "--criterion", crit)
            assert code == 0
            assert out.splitlines()[0] == f"{crit}: holds"

    def test_cotangent_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "split-check", "--n", "3",
                           "--sheaf", "Om(1,0)", "--criterion", "horrocks")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "horrocks: fails"
        assert lines[1] == "  witness: h^1(t=0) = 1"

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "split-check", "--n", "4", "--sheaf", "T",
                           "--criterion", "horrocks", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["criterion"] == "horrocks"
        assert payload["decision"] == "fails"
        assert payload["witnesses"] == [[3, -5, 1]]

    def test_twists_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["split-check", "--n", "3", "--sheaf", "T", "--criterion", "horrocks", "--twists=-3..3"])
        assert exc.value.code == 2

    def test_verdicts_read_the_middle_rows_alone(self):
        # why split-check takes no range: the criteria read rows 1..n-1,
        # whose finite windows table materializes whole at any range
        rng = random.Random(20261027)
        for _ in range(60):
            n = rng.randint(2, 7)
            spec = "+".join(rng.choice([f"O({rng.randint(-6, 6)})", f"Om({rng.randint(1, n - 1)},{rng.randint(-6, 6)})", "T"])
                            for _ in range(rng.randint(1, 4)))
            sheaf = parse_sheaf(spec, n)
            lo = rng.randint(-3 * n, n)
            tables = [table(sheaf, 0, 0), table(sheaf, lo, lo + rng.randint(0, 3 * n))]
            verdicts = [[horrocks(t)] for t in tables]
            for rank_check in (evans_griffith, kpr):
                for v, t in zip(verdicts, tables):
                    try:
                        v.append(rank_check(t, sheaf.rank, n))
                    except InapplicableError as exc:
                        v.append(str(exc))
            assert verdicts[0] == verdicts[1], spec


class TestTableChecks:
    def test_acm_from_pfaff_chase(self, capsys):
        code, out, _ = run(capsys, "acm-check", "--from-chase", "pfaff:2:-2,-2,-2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "acm: fails"
        assert lines[1] == "  witness: h^2(t=0) = 1"

    def test_buchsbaum_from_pfaff_chase(self, capsys):
        code, out, _ = run(capsys, "buchsbaum-check", "--from-chase", "pfaff:2:-2,-2,-2")
        assert code == 0
        assert out.splitlines()[0] == "buchsbaum(numeric): holds"

    def test_acm_from_tangent_chase_holds(self, capsys):
        code, out, _ = run(capsys, "acm-check", "--from-chase", "tangent:-1,-2",
                           "--n", "4", "--json")
        assert code == 0
        assert json.loads(out)["decision"] == "holds"

    def test_table_contradicting_its_window_exits_one(self, capsys, tmp_path):
        # h^2(-3) = 5 where row 2's own window 0..0 certifies it zero:
        # acm-check would read the entry, possible_entries the window
        path = tmp_path / "contradictory.table.json"
        path.write_text(json.dumps({
            "n": 4,
            "dim_z": 2,
            "rows": {"2": {"-3": 5, "0": 1}},
            "windows": {"0": {"lo": 0, "hi": None}, "1": {"empty": True}, "2": {"lo": 0, "hi": 0}},
        }))
        for argv in (("acm-check",), ("beilinson-bound",)):
            code, out, err = run(capsys, *argv, "--table", str(path))
            message = "malformed table: h^2(t=-3) = 5 lies outside the row's window"
            assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "command, width, shown",
        [
            ("acm-check", 10**6, ["acm: undetermined", "  acm: row 1 not pinned at twist 3"]),
            ("acm-check", 10**5, ["acm: undetermined", "  acm: row 1 not pinned at twist 3"]),
            (
                "buchsbaum-check",
                10**5,
                [
                    "buchsbaum(numeric): undetermined",
                    "  witness: h^1(t=3) = 0+",
                    "  witness: h^1(t=4) = 0+",
                    "  buchsbaum: multiplication criterion not certifiable, row 1 possibly nonzero at consecutive twists 3, 4",
                ],
            ),
            (
                "buchsbaum-check",
                10**6,
                [
                    "buchsbaum(numeric): undetermined",
                    f"  buchsbaum: row 1 cannot be enumerated (window of 1000001 twists, over the cap of {MAX_TABLE_ENTRIES})",
                ],
            ),
        ],
    )
    def test_wide_window_is_read_to_its_first_open_twist(self, capsys, tmp_path, command, width, shown):
        # a file of about 100 bytes whose row 1 window spans 0..width; a
        # walk over every twist of the window took 1.25 s at 10^6
        path = tmp_path / "wide.table.json"
        path.write_text(json.dumps({
            "n": 3, "dim_z": 1, "rows": {"1": {"0": 0, "1": 0, "2": 0}}, "windows": {"1": {"lo": 0, "hi": width}},
        }))
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--table", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out.splitlines(), err) == (0, shown, "")

    def test_beilinson_clause_stops_at_the_first_open_twist(self, capsys, tmp_path):
        # row 0 of O(10^6) on P^4 is certified zero below -10^6 only; the
        # walk to -2 took 1.1 s, and about 20 min at O(10^9)
        code, dumped, _ = run(capsys, "cohomology", "--n", "4", "--sheaf", "O(1000000)", "--twists=0..0", "--json")
        path = tmp_path / "o.table.json"
        path.write_text(dumped)
        start = time.perf_counter()
        code, out, err = run(capsys, "beilinson-bound", "--table", str(path))
        assert time.perf_counter() - start < 1
        message = "clause (i) fails: h^0 at twist -1000000 not certified zero"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_table_file_round_trip(self, capsys, tmp_path):
        code, dumped, _ = run(capsys, "chase", "--pfaff=-2,-2,-2", "--r", "2", "--json")
        assert code == 0
        path = tmp_path / "z.table.json"
        path.write_text(dumped)
        code, out, _ = run(capsys, "acm-check", "--table", str(path))
        assert code == 0
        assert out.splitlines()[0] == "acm: fails"

    @pytest.mark.parametrize("windows", ['', ', "windows": {"0": null, "1": null}'], ids=["missing", "null"])
    @pytest.mark.parametrize(
        "argv, code, want",
        [
            (("acm-check",), 0, "acm: undetermined\n  acm: row 1 window is unbounded\n"),
            (("regularity",), 1, "error: row 1 is unbounded above; regularity is undecidable\n"),
            (("beilinson-bound",), 1, "error: clause (i) not certifiable: row 0 unbounded below\n"),
        ],
        ids=["acm", "regularity", "beilinson"],
    )
    def test_windowless_table_rows_exclude_no_twist(self, capsys, tmp_path, windows, argv, code, want):
        path = tmp_path / "windowless.table.json"
        path.write_text('{"n": 4, "dim_z": 1' + windows + "}")
        got = run(capsys, *argv, "--table", str(path))
        assert (got[0], got[1] + got[2]) == (code, want)

    def test_tangent_chase_needs_n(self, capsys):
        code, _, err = run(capsys, "acm-check", "--from-chase", "tangent:-1,-2")
        assert code == 1
        assert "needs --n" in err

    @pytest.mark.parametrize(
        "spec, why",
        [
            ("pfaff:x:-2,-2", "rank must follow 'pfaff:'"),
            ("foo:-2", "use tangent:T1,T2,... or pfaff:R:T1,T2,..."),
        ],
    )
    def test_bad_chase_spec(self, capsys, spec, why):
        code, out, err = run(capsys, "acm-check", "--from-chase", spec)
        assert (code, out, err) == (1, "", f"error: bad chase spec {spec!r}; {why}\n")

    def test_malformed_table_file(self, capsys, tmp_path):
        path = tmp_path / "junk.table.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "acm-check", "--table", str(path))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 3, "rows": []}',
            '{"n": 3, "rows": {"1": {"0": 1.5}}}',
            "[1, 2]",
            '{"n": 0}',
            '{"n": 1, "dim_z": 0, "windows": {"0": {"empty": true}, "1": {"empty": true}, "4": {"empty": true}}}',
        ],
    )
    @pytest.mark.parametrize("command", ["acm-check", "regularity"])
    def test_malformed_table_shape(self, capsys, tmp_path, command, text):
        # Each of these once printed a traceback or was read without a
        # word (regularity then printed 0); the reader now refuses them.
        path = tmp_path / "bad.table.json"
        path.write_text(text)
        code, out, err = run(capsys, command, "--table", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_entry_with_too_many_digits(self, capsys, tmp_path):
        path = tmp_path / "huge.table.json"
        path.write_text('{"n": 1, "rows": {"0": {"0": ' + "1" * 5000 + "}}}")
        code, out, err = run(capsys, "regularity", "--table", str(path))
        message = f"a table entry of 5000 digits exceeds the cap of {MAX_LITERAL_DIGITS} digits"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "text",
        ['{"n": 1, "rows": {"0": {"KEY": 0}}}', '{"n": 1, "windows": {"KEY": null}}'],
        ids=["twist", "row index"],
    )
    def test_key_with_too_many_digits(self, capsys, tmp_path, text):
        path = tmp_path / "huge-key.table.json"
        path.write_text(text.replace("KEY", "1" * 5000))
        code, out, err = run(capsys, "regularity", "--table", str(path))
        message = f"a table entry of 5000 digits exceeds the cap of {MAX_LITERAL_DIGITS} digits"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @staticmethod
    def chased_file(capsys, tmp_path, dim_z):
        """The file that chase --json writes for tangent:0,0 on P^3, where
        dim Z = 1, with its dim_z set to dim_z."""
        code, dumped, _ = run(capsys, "chase", "--tangent=0,0", "--n", "3", "--json")
        assert code == 0
        data = json.loads(dumped)
        data["dim_z"] = dim_z
        path = tmp_path / "chased.table.json"
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("command", ["acm-check", "buchsbaum-check"])
    def test_dim_z_option_is_gone(self, capsys, command):
        # dim Z is a fact about Z: the table that the chase makes carries it
        with pytest.raises(SystemExit) as exc:
            main([command, "--from-chase", "pfaff:2:-2,-2,-2", "--dim-z", "0"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith("usage: singscheme ")
        assert err.endswith("error: unrecognized arguments: --dim-z 0\n")

    @pytest.mark.parametrize("command", ["acm-check", "buchsbaum-check"])
    @pytest.mark.parametrize(
        "dim_z, message",
        [
            ("3", "a proper subscheme has dimension at most n-1"),
            ("5", "a proper subscheme has dimension at most n-1"),
            ("-2", "a subscheme has dimension at least -1 (the empty scheme)"),
            ("-3", "a subscheme has dimension at least -1 (the empty scheme)"),
        ],
    )
    def test_impossible_dim_z_is_refused(self, capsys, tmp_path, command, dim_z, message):
        path = self.chased_file(capsys, tmp_path, int(dim_z))
        assert run(capsys, command, "--table", str(path)) == (1, "", f"error: {message}\n")
        path = tmp_path / "z.table.json"
        path.write_text(json.dumps({"n": 3, "dim_z": int(dim_z)}))
        assert run(capsys, command, "--table", str(path)) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "command, dim_z, want",
        [
            ("acm-check", "-1", "acm: holds\n  acm: empty row range 1..-1\n"),
            ("acm-check", "2", "acm: undetermined\n  acm: row 2 window is unbounded\n"),
            ("buchsbaum-check", "-1", "buchsbaum(numeric): holds\n  buchsbaum: no intermediate rows\n"),
            ("buchsbaum-check", "2", "buchsbaum(numeric): undetermined\n"
             "  buchsbaum: row 2 cannot be enumerated (missing or unbounded window)\n"),
        ],
    )
    def test_dim_z_from_the_empty_scheme_to_n_minus_one(self, capsys, tmp_path, command, dim_z, want):
        path = self.chased_file(capsys, tmp_path, int(dim_z))
        assert run(capsys, command, "--table", str(path)) == (0, want, "")

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    @pytest.mark.parametrize("command", ["acm-check", "buchsbaum-check"])
    @pytest.mark.parametrize("spec", sorted(GOLDEN_SPECS))
    def test_chased_table_file_reads_as_the_chase(self, capsys, tmp_path, spec, command, flags):
        # dim Z travels inside the table: the file that chase --json writes
        # gives each check exactly what --from-chase gives it
        E, r = GOLDEN_SPECS[spec]
        twists = spec.partition(":")[2]
        if r is None:
            data, n = (f"--tangent={twists}",), ("--n", str(E.n))
        else:
            data, n = (f"--pfaff={twists.partition(':')[2]}", "--r", str(r)), ()
        code, dumped, _ = run(capsys, "chase", *data, *n, "--json")
        assert code == 0
        path = tmp_path / "chased.table.json"
        path.write_text(dumped)
        want = run(capsys, command, "--from-chase", spec, *n, *flags)
        assert want[0] == 0
        assert run(capsys, command, "--table", str(path), *flags) == want

    def test_open_interval_witness(self, capsys, tmp_path):
        path = tmp_path / "open.table.json"
        path.write_text('{"n": 3, "dim_z": 1, "rows": {"1": {"0": [2, null]}}, "windows": {}}')
        code, out, err = run(capsys, "acm-check", "--table", str(path))
        assert (code, out, err) == (0, "acm: fails\n  witness: h^1(t=0) = 2+\n  acm: nonzero intermediate cohomology\n", "")

    def test_missing_field_message_kept(self, capsys, tmp_path):
        path = tmp_path / "bad.table.json"
        path.write_text('{"rows": {}}')
        code, _, err = run(capsys, "regularity", "--table", str(path))
        assert (code, err) == (1, "error: malformed input, missing field 'n'\n")


class TestChaseCommand:
    def test_text_summary(self, capsys):
        code, out, _ = run(capsys, "chase", "--pfaff=-2,-2,-2", "--r", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ideal-sheaf table on P^5 (dim Z = 2)"
        assert "h^1: zero at every twist" in lines
        assert "h^2: nonzero only for 0 <= t <= 0; t=0: 1" in lines

    def test_twists_flag_materializes_rows(self, capsys):
        code, out, _ = run(capsys, "chase", "--n", "3", "--tangent=0,0",
                           "--twists=0..4")
        assert code == 0
        assert "t=" in out

    def test_json_has_dim_z(self, capsys):
        code, out, _ = run(capsys, "chase", "--n", "4", "--tangent=-1,-2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim_z"] == 1
        assert payload["n"] == 4

    def test_explain_is_valid_deterministic_json(self, capsys):
        code, first, _ = run(capsys, "chase", "--pfaff=-2,-2", "--r", "1", "--explain")
        assert code == 0
        payload = json.loads(first)
        assert set(payload) == {"entries", "n", "windows"}
        assert payload["n"] == 3
        code, second, _ = run(capsys, "chase", "--pfaff=-2,-2", "--r", "1", "--explain")
        assert (code, second) == (0, first)

    @pytest.mark.parametrize("data", [("--pfaff=-2,-2,-2", "--r", "2"), ("--tangent=-1,-2", "--n", "4")])
    def test_explain_entries_replay(self, capsys, data):
        # the README's promise: each printed entry replays on its own to
        # the value printed with it
        code, out, _ = run(capsys, "chase", *data, "--explain", "--twists=-3..3")
        assert code == 0
        entries = json.loads(out)["entries"]
        assert {e["rule"] for e in entries} >= {"window", "solve-c"}
        for entry in entries:
            assert replay_trace(entry) == DimValue.from_json(entry["value"]), entry

    @pytest.mark.parametrize(
        "flags, whose", [((), ""), (("--json",), ""), (("--explain",), " of I_Z")], ids=["text", "json", "explain"]
    )
    def test_value_too_long_to_print(self, capsys, flags, whose):
        # h^0(I_Z(t)) for F = O(0) on P^3 grows like t^3: about 6,000 digits
        # at t = 10^2000, which str() refuses; it is named before any output
        t = 10**2000
        code, out, err = run(capsys, "chase", "--tangent=0", "--n", "3", f"--twists={t}..{t}", *flags)
        message = f"h^0(t={t}){whose} is too long to print: more than {MAX_LITERAL_DIGITS} digits"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags", [(), ("--json",), ("--explain",)], ids=["text", "json", "explain"])
    def test_long_values_below_the_limit_print(self, capsys, flags):
        # about 3,900 digits at t = 10^1300, inputs of --explain included
        t = 10**1300
        code, out, err = run(capsys, "chase", "--tangent=0", "--n", "3", f"--twists={t}..{t}", *flags)
        assert (code, err) == (0, "")
        assert str(t) in out

    def test_pfaff_needs_rank(self, capsys):
        code, _, err = run(capsys, "chase", "--pfaff=-2,-2")
        assert code == 1
        assert "needs --r" in err

    def test_tangent_data_refuses_rank(self, capsys):
        code, out, err = run(capsys, "chase", "--tangent=-1,-2", "--n", "4", "--r", "3")
        assert (code, out, err) == (1, "", "error: a tangent chase takes no --r\n")

    def test_n_conflict_rejected(self, capsys):
        code, _, err = run(capsys, "chase", "--pfaff=-2,-2", "--r", "1", "--n", "7")
        assert code == 1
        assert "contradicts" in err

    @pytest.mark.parametrize("argv", [
        ("chase", "--tangent=0", "--n", "0"),
        ("regularity", "--from-chase", "tangent:0", "--n", "0"),
    ])
    def test_chase_data_ambient_dimension_message(self, capsys, argv):
        # the same message as cohomology: one owner for the n >= 1 rule
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: ambient dimension must be positive\n")

    @pytest.mark.parametrize("argv", [
        ("chase", "--pfaff=-2,-2", "--r", "-5"),
        ("regularity", "--from-chase", "pfaff:-5:-2,-2"),
    ], ids=["flags", "spec"])
    def test_pfaff_dimension_named_before_the_bundle(self, capsys, argv):
        # two twists with r = -5 would live on P^-3: r is named, not n
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: Pfaff data needs dimension r >= 1, got r=-5\n")

    def test_entry_cap(self, capsys):
        # O(-3..2) on P^60 over -151..151 writes 998,082 entries; over
        # -1000..1000 it is refused before any row is solved
        code, out, err = run(capsys, "chase", "--tangent=-3,-2,-1,0,1,2", "--n", "60", "--twists=-1000..1000")
        message = f"the chase would write 6591294 entries, over the cap of {MAX_CHASE_ENTRIES}"
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestRegularityAndBeilinson:
    def test_regularity_generated_fixture(self, capsys):
        # F = O^2 on P^3: d = 2, k = 1, so the bound is 4
        code, out, _ = run(capsys, "regularity", "--from-chase", "tangent:0,0",
                           "--n", "3")
        assert code == 0
        assert int(out) <= 4

    def test_beilinson_bound_on_tangent_table(self, capsys, tmp_path):
        path = tmp_path / "t.table.json"
        path.write_text(table(tangent_sheaf(5), -7, -1).dumps())
        code, out, _ = run(capsys, "beilinson-bound", "--table", str(path))
        assert (code, out) == (0, "5\n")

    def test_rank_contradiction(self, capsys, tmp_path):
        path = tmp_path / "t.table.json"
        path.write_text(table(tangent_sheaf(4), -6, -1).dumps())
        code, out, _ = run(capsys, "beilinson-bound", "--table", str(path),
                           "--rank", "3")
        assert code == 0
        assert out.splitlines() == [
            "4",
            "contradiction: no rank-3 sheaf realizes this table",
        ]
        code, out, _ = run(capsys, "beilinson-bound", "--table", str(path),
                           "--rank", "4", "--json")
        assert code == 0
        assert json.loads(out) == {"bound": 4, "rank": 4, "contradiction": False}
        code, out, _ = run(capsys, "beilinson-bound", "--table", str(path),
                           "--rank", "3", "--json")
        assert code == 0
        assert json.loads(out) == {"bound": 4, "rank": 3, "contradiction": True}
        code, out, _ = run(capsys, "beilinson-bound", "--table", str(path), "--rank", "4")
        assert (code, out.splitlines()) == (0, ["4", "compatible with rank 4"])
        code, out, _ = run(capsys, "beilinson-bound", "--table", str(path), "--json")
        assert (code, json.loads(out)) == (0, {"bound": 4})

    def test_rank_must_be_positive(self, capsys, tmp_path):
        path = tmp_path / "t.table.json"
        path.write_text(table(tangent_sheaf(4), -6, -1).dumps())
        code, out, err = run(capsys, "beilinson-bound", "--table", str(path), "--rank", "0")
        assert (code, out, err) == (1, "", "error: rank must be positive\n")

    @pytest.mark.parametrize("flags", [(), ("--json",), ("--rank", "3")])
    def test_bound_too_long_to_print(self, capsys, tmp_path, flags):
        # 4 x h^3(t=-5), a value of 4,300 nines, has 4,301 digits
        path = tmp_path / "t.table.json"
        path.write_text(json.dumps({
            "n": 4,
            "rows": {"3": {"-5": 10**MAX_LITERAL_DIGITS - 1}},
            "windows": {"0": {"lo": 0, "hi": None}, "2": {"empty": True}, "3": {"lo": -5, "hi": -5}},
        }))
        code, out, err = run(capsys, "beilinson-bound", "--table", str(path), *flags)
        message = f"the bound is too long to print: more than {MAX_LITERAL_DIGITS} digits"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_regularity_too_long_to_print(self, capsys, tmp_path):
        # row 1 may be nonzero up to 10^4300 - 1, so the regularity is 10^4300 + 1
        path = tmp_path / "t.table.json"
        path.write_text(json.dumps({"n": 3, "windows": {"1": {"lo": 0, "hi": 10**MAX_LITERAL_DIGITS - 1}, "2": {"empty": True}, "3": {"empty": True}}}))
        code, out, err = run(capsys, "regularity", "--table", str(path))
        message = f"the regularity is too long to print: more than {MAX_LITERAL_DIGITS} digits"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_inapplicable_table_is_reported_before_the_rank(self, capsys, tmp_path):
        path = tmp_path / "t3.table.json"
        path.write_text(table(tangent_sheaf(3), -5, -1).dumps())
        code, out, err = run(capsys, "beilinson-bound", "--table", str(path), "--rank", "0")
        assert (code, out, err) == (1, "", "error: rank bound needs n >= 4\n")


class TestClassifyCommand:
    def test_all_four_rows(self, capsys):
        expected = {
            (4, 2): "O(-2)^3 / smooth projected Veronese surface",
            (4, 3): "O(-2)^2+O(-3) / K3 surface of genus 7",
            (5, 3): "O(-2)^4 / a scroll over a plane cubic surface",
            (5, 4): "O(-2)^3+O(-3) / P(R_2) ∩ Bl_{P^2} P^8",
        }
        for (n, d), line in expected.items():
            code, out, _ = run(capsys, "classify", "--n", str(n), "--degree", str(d))
            assert (code, out) == (0, line + "\n")

    def test_json_row(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "4", "--degree", "2", "--json")
        assert code == 0
        assert json.loads(out) == {
            "n": 4,
            "degree": 2,
            "pfaff": "O(-2)^3",
            "pfaff_twists": [-2, -2, -2],
            "sing_description": "smooth projected Veronese surface",
        }

    def test_unknown_row_exits_one(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "6", "--degree", "2")
        assert code == 1
        assert "no classification row" in err
        assert "(n=4, degree=2)" in err


class TestFormSing:
    def test_report_skips_zero_coefficients_of_the_polynomial(self, capsys, tmp_path):
        # HP = 3t has a zero constant term, which the rendering leaves out
        path = tmp_path / "cubics.form"
        path.write_text(
            "(z0^3 + z1^3 + z2^3) dz0^dz1 + z3*z0^2 dz0^dz2 + z3*z1^2 dz0^dz3"
            " + z3*z2^2 dz1^dz2 + z3^3 dz1^dz3"
        )
        assert run(capsys, "form", "sing", "--input", str(path)) == (
            0,
            "form: 2-form on P^3, coefficient degree 3\n"
            "radial contraction: NONZERO (not projective)\n"
            "ideal: 5 generators, degrees 3,3,3,3,3\n"
            "scheme: dim 1, degree 3\n"
            "hilbert polynomial: 3t (stable from t=6)\n"
            "ACM: undetermined\n"
            "  no deficiency at t >= 0; twists t < 0 are invisible to a Hilbert function\n"
            "Buchsbaum(numeric): holds\n"
            "  no visible deficiency module\n",
            "",
        )

    def test_two_lines_report(self, capsys, tmp_path):
        path = tmp_path / "two_lines.form"
        path.write_text(TWO_LINES_FORM)
        code, out, _ = run(capsys, "form", "sing", "--input", str(path))
        assert code == 0
        assert out == (
            "form: 2-form on P^3, coefficient degree 2, distribution degree 1\n"
            "radial contraction: zero\n"
            "ideal: 4 generators, degrees 2,2,2,2\n"
            "scheme: dim 1, degree 2\n"
            "hilbert polynomial: 2t + 2 (stable from t=1)\n"
            "ACM: fails\n"
            "  witness: h^1(I(0)) >= 1 (Hilbert function vs polynomial)\n"
            "Buchsbaum(numeric): holds\n"
            "  deficiency support [0]: no consecutive twists\n"
        )

    def test_explicit_n_matches_inference(self, capsys, tmp_path):
        path = tmp_path / "two_lines.form"
        path.write_text(TWO_LINES_FORM)
        _, inferred, _ = run(capsys, "form", "sing", "--input", str(path))
        _, explicit, _ = run(capsys, "form", "sing", "--input", str(path), "--n", "3")
        assert inferred == explicit

    def test_json_payload(self, capsys, tmp_path):
        path = tmp_path / "two_lines.form"
        path.write_text(TWO_LINES_FORM)
        code, out, _ = run(capsys, "form", "sing", "--input", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 3
        assert payload["k"] == 2
        assert payload["distribution_degree"] == 1
        assert payload["radial_zero"] is True
        assert payload["ideal"] == {"generators": 4, "degrees": [2, 2, 2, 2]}
        assert payload["acm"] == {"decision": "fails", "deficiency": [[0, 1]]}
        assert payload["buchsbaum_numeric"] == {"decision": "holds", "support": [0]}
        hil = payload["hilbert"]
        assert set(hil) == {"values", "polynomial", "dim", "deg", "stable_from"}
        assert (hil["dim"], hil["deg"]) == (1, 2)

    def test_line_ideal_is_undetermined_not_failing(self, capsys, tmp_path):
        # z0 dz1 - z1 dz0 cuts out the line z0 = z1 = 0, which is ACM;
        # no visible deficiency, so the tool must not claim a failure.
        path = tmp_path / "line.form"
        path.write_text("z0 dz1 - z1 dz0")
        code, out, _ = run(capsys, "form", "sing", "--input", str(path), "--n", "3")
        assert code == 0
        assert "ACM: undetermined" in out
        assert "Buchsbaum(numeric): holds" in out
        assert "no visible deficiency module" in out

    def test_dimension_zero_three_points(self, capsys, tmp_path):
        # The three fixed points of a degree-1 foliation of P^2: a
        # zero-dimensional scheme has no intermediate rows, so it is ACM and
        # Buchsbaum although HP(0) - HF(0) = 2 > 0.
        path = tmp_path / "three_points.form"
        path.write_text("z1*z2 dz0 - 2*z0*z2 dz1 + z0*z1 dz2")
        code, out, _ = run(capsys, "form", "sing", "--input", str(path))
        assert code == 0
        assert out == (
            "form: 1-form on P^2, coefficient degree 2, distribution degree 1\n"
            "radial contraction: zero\n"
            "ideal: 3 generators, degrees 2,2,2\n"
            "scheme: dim 0, degree 3\n"
            "hilbert polynomial: 3 (stable from t=1)\n"
            "ACM: holds\n"
            "  acm: empty row range 1..0\n"
            "Buchsbaum(numeric): holds\n"
            "  buchsbaum: no intermediate rows\n"
        )
        code, out, _ = run(capsys, "form", "sing", "--input", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["acm"] == {"decision": "holds", "deficiency": [[0, 2]]}
        assert payload["buchsbaum_numeric"] == {"decision": "holds", "support": [0]}

    def test_dimension_zero_seven_points(self, capsys, tmp_path):
        # Degree-2 foliation of P^2 from the quadratic field (z0^2, z1^2, z2^2):
        # seven points, deficiency at the consecutive twists 0, 1, 2, and
        # still ACM and Buchsbaum.
        z = [HomogeneousPoly.variable(3, i) for i in range(3)]
        field = PolyVectorField(3, tuple(v * v for v in z))
        path = tmp_path / "seven_points.form"
        path.write_text(form_str(volume_contract_chain(2, [field])))
        code, out, _ = run(capsys, "form", "sing", "--input", str(path))
        assert code == 0
        assert out.splitlines()[3:] == [
            "scheme: dim 0, degree 7",
            "hilbert polynomial: 7 (stable from t=3)",
            "ACM: holds",
            "  acm: empty row range 1..0",
            "Buchsbaum(numeric): holds",
            "  buchsbaum: no intermediate rows",
        ]
        code, out, _ = run(capsys, "form", "sing", "--input", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["acm"] == {"decision": "holds", "deficiency": [[0, 6], [1, 4], [2, 1]]}
        assert payload["buchsbaum_numeric"] == {"decision": "holds", "support": [0, 1, 2]}

    def test_nonprojective_form_flagged(self, capsys, tmp_path):
        path = tmp_path / "affine.form"
        path.write_text("z0 dz1")
        code, out, _ = run(capsys, "form", "sing", "--input", str(path), "--n", "2")
        assert code == 0
        assert "radial contraction: NONZERO (not projective)" in out
        assert "distribution degree" not in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "form", "sing", "--input", "/nonexistent.form")
        assert code == 1
        assert err.startswith("error:")

    def test_form_without_variables_needs_n(self, capsys, tmp_path):
        path = tmp_path / "constant.form"
        path.write_text("7")
        code, out, err = run(capsys, "form", "sing", "--input", str(path))
        assert (code, out, err) == (1, "", "error: cannot infer the ambient dimension from the form; pass --n\n")

    @pytest.mark.parametrize(
        "text, argv",
        [
            ("z0 dz1 - z1 dz0", ("--n", "0")),
            ("z0 dz1 - z1 dz0", ("--n", "-3")),
            ("z0 dz0", ()),
            ("z0", ()),
        ],
    )
    def test_ambient_dimension_below_one_exits_one(self, capsys, tmp_path, text, argv):
        path = tmp_path / "p0.form"
        path.write_text(text)
        code, out, err = run(capsys, "form", "sing", "--input", str(path), *argv)
        assert (code, out, err) == (1, "", "error: ambient dimension must be positive\n")

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "broken.form"
        path.write_text("z0 dz1 +")
        code, _, err = run(capsys, "form", "sing", "--input", str(path))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("z0 dz1 z1 dz0", "expected + or - before 'z1' (token 2)"),
            ("z0 @ dz1", "unexpected character at position 3: '@'"),
        ],
    )
    def test_malformed_form_error_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "malformed.form"
        path.write_text(text)
        code, out, err = run(capsys, "form", "sing", "--input", str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_deep_nesting_is_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "deep.form"
        path.write_text("(" * 1000 + "z0" + ")" * 1000 + " dz1 - z1 dz0")
        code, out, err = run(capsys, "form", "sing", "--input", str(path))
        message = f"parentheses nest deeper than the cap of {MAX_NESTING} levels (token {MAX_NESTING + 1})"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_zero_denominator_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "zero_den.form"
        path.write_text("2/0 z0 dz1")
        code, out, err = run(capsys, "form", "sing", "--input", str(path))
        assert (code, out, err) == (1, "", "error: zero denominator in 2/0 (token 1)\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("z0^100000000 dz1 - z1^100000000 dz0", f"power 100000000 exceeds the degree cap of {MAX_DEGREE} (token 3)"),
            (f"z0^{MAX_DEGREE} z1 dz0", f"polynomial degree {MAX_DEGREE + 1} exceeds the cap of {MAX_DEGREE}"),
        ],
    )
    def test_degree_over_the_cap_exits_one(self, capsys, tmp_path, text, message):
        path = tmp_path / "huge.form"
        path.write_text(text)
        code, out, err = run(capsys, "form", "sing", "--input", str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "text, argv",
        [
            ("z0 dz1 - z1 dz0", ("--n", str(MAX_VARIABLES))),
            (f"z{MAX_VARIABLES} dz0 - z0 dz{MAX_VARIABLES}", ()),
        ],
    )
    def test_variables_over_the_cap_exit_one(self, capsys, tmp_path, text, argv):
        path = tmp_path / "wide.form"
        path.write_text(text)
        code, out, err = run(capsys, "form", "sing", "--input", str(path), *argv)
        message = f"{MAX_VARIABLES + 1} variables exceed the cap of {MAX_VARIABLES}"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [(), ("--n", "3")])
    @pytest.mark.parametrize(
        "text",
        ["z" + "1" * 5000 + " dz0 - z0 dz1", "z1 dz" + "1" * 5000 + " - z0 dz1"],
        ids=["z", "dz"],
    )
    def test_index_with_too_many_digits_exits_one(self, capsys, tmp_path, text, argv):
        path = tmp_path / "huge_index.form"
        path.write_text(text)
        code, out, err = run(capsys, "form", "sing", "--input", str(path), *argv)
        message = f"a variable index of 5000 digits exceeds the cap of {MAX_VARIABLES} variables"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [(), ("--n", "3")])
    @pytest.mark.parametrize(
        "text, what",
        [
            ("1" * 5000 + " z0 dz1 - z1 dz0", "a coefficient"),
            ("1" * 5000 + "/3 z0 dz1 - z1 dz0", "a coefficient"),
        ],
        ids=["integer", "numerator"],
    )
    def test_coefficient_with_too_many_digits_exits_one(self, capsys, tmp_path, text, what, argv):
        path = tmp_path / "huge_coefficient.form"
        path.write_text(text)
        code, out, err = run(capsys, "form", "sing", "--input", str(path), *argv)
        message = f"{what} of 5000 digits exceeds the cap of {MAX_LITERAL_DIGITS} digits"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_a_4000_digit_coefficient_still_runs(self, capsys, tmp_path):
        path = tmp_path / "long_coefficient.form"
        path.write_text("1" * 4000 + " z0 dz1 - " + "1" * 4000 + " z1 dz0")
        code, out, err = run(capsys, "form", "sing", "--input", str(path), "--n", "2")
        assert (code, err) == (0, "")
        assert "radial contraction: zero\n" in out
        assert "scheme: dim 0, degree 1\n" in out

    def test_product_over_the_term_cap_exits_one(self, capsys, tmp_path):
        # 30 linear factors in 6 variables: C(35, 5) = 324,632 terms; the
        # product is refused at the 24th factor, C(29, 5) = 118,755
        path = tmp_path / "many_terms.form"
        path.write_text("(z0+z1+z2+z3+z4+z5)" * 30 + " dz1")
        code, out, err = run(capsys, "form", "sing", "--input", str(path))
        message = f"product of 98280- and 6-term polynomials exceeds the cap of {MAX_TERMS} terms"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_product_over_the_work_cap_exits_one(self, capsys, tmp_path):
        # two dense degree-100 ternary forms: 20,301 terms, under the term
        # cap, from 5151 x 5151 coefficient products
        path = tmp_path / "much_work.form"
        path.write_text("(" + "(z0+z1+z2)" * 100 + ")" + "(" + "(z0+z1+z2)" * 100 + ") dz1")
        code, out, err = run(capsys, "form", "sing", "--input", str(path))
        message = f"product of 5151- and 5151-term polynomials exceeds the cap of {MAX_PRODUCT_WORK} coefficient products"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_chain_of_products_over_the_parse_budget_exits_one(self, capsys, tmp_path):
        # 200 linear factors: each product is far under MAX_TERMS and
        # MAX_PRODUCT_WORK, but the chain's products sum past MAX_PARSE_WORK
        path = tmp_path / "long_chain.form"
        path.write_text("(z0+z1+z2)" * 200 + " dz1")
        code, out, err = run(capsys, "form", "sing", "--input", str(path))
        message = f"the products of the form exceed the cap of {MAX_PARSE_WORK} coefficient products per parse"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_generator_degree_beyond_forty(self, capsys, tmp_path):
        # degree-46 generators: every twist up to 40 shows the ambient
        # Hilbert function, yet the scheme is the plane z0 = 0 counted 45
        # times (with the line z1 = z2 = 0), not P^3
        path = tmp_path / "high_degree.form"
        path.write_text("z0^45*z1 dz2 - z0^45*z2 dz1")
        code, out, err = run(capsys, "form", "sing", "--input", str(path), "--n", "3")
        assert (code, err) == (0, "")
        assert "scheme: dim 2, degree 45\n" in out

    def test_degree_38_generators_on_the_plane(self, capsys, tmp_path):
        path = tmp_path / "z0_37.form"
        path.write_text("z0^37*z1 dz2 - z0^37*z2 dz1")
        code, out, err = run(capsys, "form", "sing", "--input", str(path))
        assert (code, err) == (0, "")
        assert "form: 1-form on P^2, coefficient degree 38, distribution degree 37\n" in out
        assert "scheme: dim 1, degree 37\n" in out


class TestFormPullback:
    @pytest.mark.parametrize(
        "n, degrees, dim, degree",
        [(4, "1,1", 1, 10), (5, "1,1", 1, 15), (5, "2,1,0", 2, 26)],
    )
    def test_pullbacks_beyond_the_macaulay_reach(self, capsys, n, degrees, dim, degree):
        code, out, _ = run(capsys, "form", "pullback", "--n", str(n), "--field-degrees", degrees)
        assert code == 0
        assert f"scheme: dim {dim}, degree {degree}\n" in out
        assert f"split-formula degree: {degree} (matches)\n" in out

    def test_one_field_shape_matches_formula(self, capsys):
        code, out, _ = run(capsys, "form", "pullback", "--n", "3",
                           "--field-degrees", "1,0")
        assert code == 0
        assert out == (
            "pullback form: 1-form on P^3, distribution degree 1\n"
            "fields: degrees 1,0 and the radial field\n"
            "radial contraction: zero\n"
            "ideal: 3 generators, degrees 2,2,2\n"
            "scheme: dim 1, degree 3\n"
            "split-formula degree: 3 (matches)\n"
        )

    def test_degree_two_field(self, capsys):
        code, out, _ = run(capsys, "form", "pullback", "--n", "3",
                           "--field-degrees", "2,0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["distribution_degree"] == 2
        assert payload["formula_degree"] == pullback_degree(3, 1, 2) == 7
        assert payload["matches_formula"] is True

    def test_codimension_two_shape(self, capsys):
        # single degree-1 field on P^3: a 2-form whose singular scheme is
        # 4 points, matching 1 + d + d^2 + d^3 at d = 1
        code, out, _ = run(capsys, "form", "pullback", "--n", "3",
                           "--field-degrees", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 2
        assert payload["scheme"] == {"dim": 0, "degree": 4}
        assert payload["matches_formula"] is True

    def test_deterministic_for_fixed_seed(self, capsys):
        _, first, _ = run(capsys, "form", "pullback", "--n", "4",
                          "--field-degrees", "2,0,0", "--json")
        _, second, _ = run(capsys, "form", "pullback", "--n", "4",
                           "--field-degrees", "2,0,0", "--json")
        assert first == second

    def test_other_seed_still_runs(self, capsys):
        code, out, _ = run(capsys, "form", "pullback", "--n", "3",
                           "--field-degrees", "1,0", "--seed", "7")
        assert code == 0
        assert "radial contraction: zero" in out

    def test_variables_over_the_cap_exit_one(self, capsys):
        code, out, err = run(capsys, "form", "pullback", "--n", str(MAX_VARIABLES), "--field-degrees", "1")
        message = f"{MAX_VARIABLES + 1} variables exceed the cap of {MAX_VARIABLES}"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_groebner_work_over_the_cap_exits_one(self, capsys, monkeypatch):
        from singscheme import hilbert
        monkeypatch.setattr(hilbert, "MAX_GROEBNER_WORK", 1000)
        code, out, err = run(capsys, "form", "pullback", "--n", "5", "--field-degrees", "1,1")
        assert (code, out, err) == (1, "", "error: the Groebner basis exceeds the cap of 1000 units of work\n")

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_ambient_dimension_below_one_exits_one(self, capsys, n):
        code, out, err = run(capsys, "form", "pullback", "--n", n, "--field-degrees", "1")
        assert (code, out, err) == (1, "", "error: ambient dimension must be positive\n")

    def test_too_many_fields(self, capsys):
        code, _, err = run(capsys, "form", "pullback", "--n", "3",
                           "--field-degrees", "1,0,0")
        assert code == 1
        assert "between 1 and 2 fields" in err

    def test_negative_degree_rejected(self, capsys):
        code, _, err = run(capsys, "form", "pullback", "--n", "3",
                           "--field-degrees=-1,0")
        assert code == 1
        assert "nonnegative" in err


class TestUsageAndColor:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["degree", "--n", "3", "--r", "1", "--d-list", "1", "--bogus"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cohomology", "--n", "3", "--twists", "0..1"])
        assert exc.value.code == 2

    def test_color_escape_codes(self, capsys, monkeypatch):
        monkeypatch.setenv("SINGSCHEME_COLOR", "1")
        code, out, _ = run(capsys, "acm-check", "--from-chase", "pfaff:2:-2,-2,-2")
        assert code == 0
        assert "\x1b[31mfails\x1b[0m" in out

    def test_color_off_by_default_env(self, capsys):
        code, out, _ = run(capsys, "buchsbaum-check", "--from-chase",
                           "pfaff:2:-2,-2,-2")
        assert code == 0
        assert "\x1b[" not in out


# The library modules one command loads in a fresh interpreter, beyond
# singscheme.cli itself. Each handler imports what it runs, so a one-shot
# process compiles only these; a module-level import in cli.py would show
# up here as an extra name.
PFAFF = "pfaff:2:-2,-2,-2"
IMPORT_SETS = [
    (("degree", "--n", "3", "--r", "1", "--d-list", "1"), {"chow"}),
    (("pullback-degree", "--n", "3", "--k", "2", "--d", "2"), {"chow"}),
    (("classify", "--n", "4", "--degree", "2"), {"chow"}),
    (("cohomology", "--n", "3", "--sheaf", "O(-1)+O(-2)", "--twists=-1..2"), {"chow", "cohomology"}),
    (("split-check", "--n", "3", "--sheaf", "Om(1,0)", "--criterion", "horrocks"),
     {"chow", "cohomology", "criteria"}),
    (("beilinson-bound", "--table", "t4.table.json", "--rank", "3"), {"chow", "cohomology", "criteria"}),
    (("chase", "--pfaff=-2,-2,-2", "--r", "2"), {"chow", "cohomology", "chase"}),
    (("acm-check", "--from-chase", PFAFF), {"chow", "cohomology", "criteria", "chase"}),
    (("buchsbaum-check", "--from-chase", PFAFF), {"chow", "cohomology", "criteria", "chase"}),
    (("regularity", "--from-chase", "tangent:0,0", "--n", "3"), {"chow", "cohomology", "criteria", "chase"}),
    (("form", "pullback", "--n", "3", "--field-degrees", "1,0"), {"chow", "forms", "hilbert"}),
    (("form", "sing", "--input", "two_lines.form"), {"chow", "cohomology", "criteria", "forms", "hilbert"}),
]
CHILD = (
    "import json, sys\n"
    "from singscheme.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('singscheme.'))]))\n"
)


@pytest.mark.parametrize(
    "argv, modules", IMPORT_SETS, ids=[" ".join(w for w in a[:2] if not w.startswith("-")) for a, _ in IMPORT_SETS]
)
def test_command_imports_only_what_it_runs(tmp_path, argv, modules):
    (tmp_path / "t4.table.json").write_text(table(tangent_sheaf(4), -6, -1).dumps())
    (tmp_path / "two_lines.form").write_text(TWO_LINES_FORM + "\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "SINGSCHEME_COLOR": "0"}
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert (code, proc.stderr) == (0, "")
    assert set(loaded) == {f"singscheme.{m}" for m in modules | {"cli"}}
