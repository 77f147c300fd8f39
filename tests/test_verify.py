"""Verification sweep plumbing: levels, report rendering, guard handling."""

import pytest

import ptolemy.expansion
from ptolemy import InputError, LaurentPolynomial, all_polygon_diagonals, all_triangulations
from ptolemy.verify import CheckRow, all_pass, render_report, run_checks
from conftest import run_optimized

_honest_expand = ptolemy.expansion.expand


def skewed_expand(t, chord, origin=None):
    """expand with every multi-term result times x1, so x1's denominator is wrong."""
    poly = _honest_expand(t, chord, origin)
    return poly * LaurentPolynomial.variable(1, t.n_labels) if len(poly) > 1 else poly


def _first_chord_crossing_label_1(n):
    # The first sweep instance whose x1 denominator the skew removes.
    return next(
        f"{chord} in {t.diagonal_key()}"
        for t in all_triangulations(n)
        for chord in all_polygon_diagonals(n)
        if 1 in t.crossing_labels(chord)
    )


def test_quick_level_square():
    rows = run_checks(1, "quick")
    assert [row.name for row in rows] == [
        "triangulation-count",
        "expansion-vs-recursion",
        "unit-coefficients",
        "denominator-vectors",
    ]
    assert all(row.status == "pass" for row in rows)


def test_full_level_square_counts():
    rows = run_checks(1, "full")
    by_name = {row.name: row for row in rows}
    assert by_name["expansion-vs-recursion"].instances == 4
    assert by_name["enumeration-vs-brute-force"].instances == 8
    assert all_pass(rows)


def test_full_level_hexagon_all_pass():
    rows = run_checks(3, "full")
    assert all(row.status == "pass" for row in rows)


def test_brute_force_skipped_beyond_its_guard():
    rows = run_checks(5, "quick")
    assert all(row.status == "pass" for row in rows)
    # full level marks the oracle comparison as skipped instead of running it
    # (covered at rank <= 4 elsewhere); only exercise the row construction here
    from ptolemy.verify import _check_enumerator_oracle

    row = _check_enumerator_oracle(5, [], [])
    assert row.status == "skip"


def test_level_and_rank_validation():
    with pytest.raises(InputError):
        run_checks(1, "bogus")
    with pytest.raises(InputError):
        run_checks(9, "quick")
    with pytest.raises(InputError):
        run_checks(0, "quick")


def test_report_rendering_flags_failures():
    rows = [
        CheckRow("alpha", 3, "pass"),
        CheckRow("beta", 1, "fail", "boom"),
        CheckRow("gamma", 0, "skip", "guarded"),
    ]
    assert not all_pass(rows)
    text = render_report(2, "quick", rows)
    assert "RESULT: FAIL" in text
    assert "boom" in text
    assert all_pass([rows[0], rows[2]])


def test_denominator_row_fails_on_a_faulty_expansion(monkeypatch):
    monkeypatch.setattr(ptolemy.expansion, "expand", skewed_expand)
    (row,) = [row for row in run_checks(2, "quick") if row.name == "denominator-vectors"]
    assert row.status == "fail"
    assert row.detail == _first_chord_crossing_label_1(2)


def test_denominator_row_fails_under_optimization():
    out = run_optimized(
        "import ptolemy.expansion, test_verify\n"
        "from ptolemy.verify import run_checks\n"
        "ptolemy.expansion.expand = test_verify.skewed_expand\n"
        "for row in run_checks(2, 'quick'):\n"
        "    if row.name == 'denominator-vectors':\n"
        "        print(row.status)\n"
        "        print(row.detail)\n"
    )
    assert out.splitlines() == ["fail", _first_chord_crossing_label_1(2)]
