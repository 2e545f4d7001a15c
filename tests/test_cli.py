"""End-to-end tests for the command line front end.

Everything runs in-process through main(argv) so stdout/stderr and exit
codes are asserted directly; SINGSCHEME_COLOR=0 keeps output stable.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from singscheme.cli import MAX_TWIST_RANGE, main, parse_sheaf
from singscheme.cohomology import CohomologyTable, table, tangent_sheaf
from singscheme.chow import MAX_LITERAL_DIGITS, pullback_degree, singular_degree_formula
from singscheme.forms import MAX_DEGREE, MAX_TERMS, MAX_VARIABLES, HomogeneousPoly, PolyVectorField, form_str, volume_contract_chain

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

    def test_malformed_list_entry(self, capsys):
        for text in ("1,x", "1/2", "1,--1", "+"):
            code, out, err = run(capsys, "degree", "--n", "3", "--r", "1", "--d-list", text)
            assert (code, out, err) == (1, "", f"error: bad integer list {text!r}\n")


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

    def test_cli_reports_grammar_error(self, capsys):
        code, _, err = run(capsys, "cohomology", "--n", "3", "--sheaf", "Q(3)",
                           "--twists", "0..1")
        assert code == 1
        assert "grammar" in err


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


class TestTwistRangeCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ("cohomology", "--n", "3", "--sheaf", "T"),
            ("split-check", "--n", "3", "--sheaf", "T", "--criterion", "horrocks"),
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

    def test_table_file_round_trip(self, capsys, tmp_path):
        code, dumped, _ = run(capsys, "chase", "--pfaff=-2,-2,-2", "--r", "2", "--json")
        assert code == 0
        path = tmp_path / "z.table.json"
        path.write_text(dumped)
        code, out, _ = run(capsys, "acm-check", "--table", str(path))
        assert code == 0
        assert out.splitlines()[0] == "acm: fails"

    def test_tangent_chase_needs_n(self, capsys):
        code, _, err = run(capsys, "acm-check", "--from-chase", "tangent:-1,-2")
        assert code == 1
        assert "needs --n" in err

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

    def test_pfaff_needs_rank(self, capsys):
        code, _, err = run(capsys, "chase", "--pfaff=-2,-2")
        assert code == 1
        assert "needs --r" in err

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

    def test_rank_must_be_positive(self, capsys, tmp_path):
        path = tmp_path / "t.table.json"
        path.write_text(table(tangent_sheaf(4), -6, -1).dumps())
        code, out, err = run(capsys, "beilinson-bound", "--table", str(path), "--rank", "0")
        assert (code, out, err) == (1, "", "error: rank must be positive\n")

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
        payload = json.loads(out)
        assert payload["pfaff_twists"] == [-2, -2, -2]
        assert payload["sing_description"] == "smooth projected Veronese surface"

    def test_unknown_row_exits_one(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "6", "--degree", "2")
        assert code == 1
        assert "no classification row" in err
        assert "(n=4, degree=2)" in err


class TestFormSing:
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

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "broken.form"
        path.write_text("z0 dz1 +")
        code, _, err = run(capsys, "form", "sing", "--input", str(path))
        assert code == 1
        assert err.startswith("error:")

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
    (("chase", "--pfaff=-2,-2,-2", "--r", "2"), {"chow", "cohomology", "criteria", "chase"}),
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
