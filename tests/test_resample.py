import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confound_audit.cohort import CSV_COLUMNS, load_cohort, write_cohort
from confound_audit.errors import InsufficientPool, MissingCovariate
from confound_audit.matching import age_bin
from confound_audit.resample import PopulationSpec, resample_general_population
from confound_audit.rngs import draw_sorted

from conftest import make_cohort, make_record


def big_pool(seed=0, n=4000):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        records.append(
            make_record(
                f"r{i}",
                label=int(rng.random() < 0.5),
                age=int(rng.integers(18, 88)),
                gender="male" if rng.random() < 0.5 else "female",
                cough=bool(rng.random() < 0.45),  # drives any_symptom
                score=float(rng.random()),
            )
        )
    return make_cohort(records)


def counts_by(cohort, fn):
    out = {}
    for r in cohort.records:
        out[fn(r)] = out.get(fn(r), 0) + 1
    return out


def test_reference_parameter_split():
    pool = big_pool()
    spec = PopulationSpec(n_pos=100, n_neg=100, p_sym_pos=0.65, p_sym_neg=0.20, seed=4)
    out, report = resample_general_population(pool, spec)
    assert len(out) == 200
    by = counts_by(out, lambda r: (r.label, r.symptoms.any_symptom))
    assert by[(1, True)] == 65 and by[(1, False)] == 35
    assert by[(0, True)] == 20 and by[(0, False)] == 80
    genders = counts_by(out, lambda r: (r.label, r.gender))
    assert genders[(1, "male")] == 50 and genders[(1, "female")] == 50
    assert genders[(0, "male")] == 50 and genders[(0, "female")] == 50
    assert report.n_total() == 200
    assert not report.shortfalls


def test_insufficient_pool_symptomatic_negatives():
    records = [make_record(f"p{i}", 1, cough=bool(i % 2), gender=("male", "female")[i % 2]) for i in range(200)]
    records += [make_record(f"n{i}", 0, gender=("male", "female")[i % 2]) for i in range(200)]
    pool = make_cohort(records)
    spec = PopulationSpec(n_pos=20, n_neg=20, p_sym_neg=0.2, equalize_age=False, seed=1)
    with pytest.raises(InsufficientPool) as err:
        resample_general_population(pool, spec)
    assert err.value.available < err.value.needed


def test_non_strict_records_shortfall():
    records = [make_record(f"p{i}", 1, cough=bool(i % 2), gender=("male", "female")[i % 2]) for i in range(200)]
    records += [make_record(f"n{i}", 0, gender=("male", "female")[i % 2]) for i in range(200)]
    pool = make_cohort(records)
    spec = PopulationSpec(n_pos=20, n_neg=20, p_sym_neg=0.2, equalize_age=False, seed=1)
    out, report = resample_general_population(pool, spec, strict=False)
    assert report.shortfalls


def test_equalized_age_bins_balanced():
    pool = big_pool(seed=9)
    spec = PopulationSpec(n_pos=120, n_neg=120, seed=2)
    out, _ = resample_general_population(pool, spec)
    per_bin = {}
    for r in out.records:
        key = age_bin(r.age_years)
        per_bin.setdefault(key, [0, 0])[r.label] += 1
    assert per_bin
    for neg, pos in per_bin.values():
        assert abs(pos - neg) <= 1


def test_no_duplicates_and_determinism():
    pool = big_pool(seed=1)
    spec = PopulationSpec(n_pos=80, n_neg=90, seed=7)
    a, _ = resample_general_population(pool, spec)
    b, _ = resample_general_population(pool, spec)
    assert len(set(a.ids())) == len(a)
    assert a.ids() == b.ids()


def test_order_independence():
    pool = big_pool(seed=2, n=1500)
    spec = PopulationSpec(n_pos=60, n_neg=60, seed=3)
    a, _ = resample_general_population(pool, spec)
    shuffled = make_cohort(list(pool.records)[::-1])
    b, _ = resample_general_population(shuffled, spec)
    assert set(a.ids()) == set(b.ids())


def test_exact_fraction_after_rounding():
    pool = big_pool(seed=3)
    spec = PopulationSpec(n_pos=33, n_neg=47, p_sym_pos=0.65, p_sym_neg=0.3, seed=5)
    out, _ = resample_general_population(pool, spec)
    by = counts_by(out, lambda r: (r.label, r.symptoms.any_symptom))
    assert by[(1, True)] == round(33 * 0.65 + 1e-9)  # 21 (round-half-up)
    assert by.get((0, True), 0) == round(47 * 0.3 + 1e-9)  # 14
    assert sum(v for (lbl, _), v in by.items() if lbl == 1) == 33
    assert sum(v for (lbl, _), v in by.items() if lbl == 0) == 47


def _pool_csv_with_blank(tmp_path, flag: str) -> str:
    """400-row pool CSV whose row ``r0`` has a blank ``flag`` cell and no
    acute flag set."""
    records = [make_record("r0", label=0, age=30, gender="male")]
    records += [r for r in big_pool(seed=5, n=400).records if r.id != "r0"][:399]
    path = tmp_path / "pool.csv"
    write_cohort(make_cohort(records), str(path))
    rows = path.read_text().splitlines(keepends=True)
    cells = rows[1].split(",")
    assert cells[0] == "r0"
    cells[CSV_COLUMNS.index(flag)] = ""
    path.write_text(rows[0] + ",".join(cells) + "".join(rows[2:]))
    return str(path)


def test_blank_acute_flag_raises_missing_covariate(tmp_path):
    pool = load_cohort(_pool_csv_with_blank(tmp_path, "cough"))
    assert len(pool) == 400
    spec = PopulationSpec(n_pos=20, n_neg=20, seed=1)
    with pytest.raises(MissingCovariate) as err:
        resample_general_population(pool, spec)
    assert err.value.name == "any_symptom"


def test_blank_non_acute_flag_is_ignored(tmp_path):
    pool = load_cohort(_pool_csv_with_blank(tmp_path, "smoker"))
    out, report = resample_general_population(pool, PopulationSpec(n_pos=20, n_neg=20, seed=1))
    assert report.n_total() == 40


def _pool_csv_unlabelled_and_ageless(tmp_path) -> str:
    """400-row pool CSV whose first row has a blank label and second row a
    blank age."""
    path = tmp_path / "pool.csv"
    write_cohort(big_pool(seed=5, n=400), str(path))
    rows = path.read_text().splitlines(keepends=True)
    for row, column in ((1, "label"), (2, "age_years")):
        cells = rows[row].split(",")
        cells[CSV_COLUMNS.index(column)] = ""
        rows[row] = ",".join(cells)
    path.write_text("".join(rows))
    return str(path)


def test_skipped_records_counted_by_reason(tmp_path):
    pool = load_cohort(_pool_csv_unlabelled_and_ageless(tmp_path))
    assert len(pool) == 400
    spec = PopulationSpec(n_pos=20, n_neg=20, seed=1)
    out, report = resample_general_population(pool, spec)
    assert report.skipped == {"no_label": 1, "no_age": 1}
    skipped_ids = {r.id for r in pool.records if r.label is None or r.age_years is None}
    assert len(skipped_ids) == 2 and not skipped_ids & set(out.ids())
    # the skipped rows change no draw: the same pool without them gives the same records
    kept = make_cohort([r for r in pool.records if r.id not in skipped_ids])
    again, kept_report = resample_general_population(kept, spec)
    assert again.ids() == out.ids()
    assert kept_report.skipped == {"no_label": 0, "no_age": 0}


def test_unequalized_draws_match_golden_digests():
    """Without age equalization each class is one bin: the sha256 of the
    drawn id lists, one draw in full and one with two short cells."""
    pool = big_pool(seed=6)
    full, report = resample_general_population(pool, PopulationSpec(n_pos=150, n_neg=170, equalize_age=False, seed=8))
    assert len(full) == 320 and not report.shortfalls
    assert hashlib.sha256("\n".join(full.ids()).encode()).hexdigest() == (
        "aa3bc3823e4132ea7df8395ad061844249e7e074fd02818e149a58348566e471")
    # 1200 asymptomatic negatives wanted, fewer in the pool
    spec = PopulationSpec(n_pos=300, n_neg=1500, p_sym_neg=0.2, equalize_age=False, seed=8)
    short, report = resample_general_population(pool, spec, strict=False)
    assert report.shortfalls == ((0, False, "female", None), (0, False, "male", None))
    assert len(short) == report.n_total() == 1686
    assert hashlib.sha256("\n".join(short.ids()).encode()).hexdigest() == (
        "682187a6460133c86c892acc4e0184d31f56a7d1e7efbbb6a6c038983bb74734")


def test_unequalized_report_keys_achieved_by_the_cells_it_names_short():
    """Without age equalization ``achieved`` and ``shortfalls`` key each cell
    the same way, with bin None, and a short cell counts all its pool holds."""
    pool = big_pool(seed=6)
    spec = PopulationSpec(n_pos=100, n_neg=1500, p_sym_neg=0.2, equalize_age=False, seed=1)
    out, report = resample_general_population(pool, spec, strict=False)
    assert report.shortfalls == ((0, False, "female", None), (0, False, "male", None))
    assert all(key.endswith("|None") for key in report.to_dict()["achieved"])
    for label, sym, gender, b in report.shortfalls:
        assert report.achieved[(label, sym, gender, b)] == sum(
            r.label == label and r.symptoms.any_symptom == sym and r.gender == gender for r in pool.records)
    assert len(out) == report.n_total()


def test_other_gender_records_stay_out_of_the_age_envelope():
    """Only male and female cells are drawn, so "other" records widen no
    bin's envelope: a bin whose negatives are all "other" gets no target,
    and the drawn ids keep the sha256 of their golden digest."""
    extra = [make_record(f"y{i}", label=1, age=12, gender=("male", "female")[i % 2], cough=i % 3 == 0)
             for i in range(40)]
    extra += [make_record(f"o{i}", label=i % 2, age=12 + i % 70, gender="other", cough=i % 2 == 0)
              for i in range(60)]
    pool = make_cohort(list(big_pool(seed=3).records) + extra)
    out, report = resample_general_population(pool, PopulationSpec(n_pos=400, n_neg=400, seed=4))
    assert len(out) == 800 and not report.shortfalls
    assert not any(i.startswith(("y", "o")) for i in out.ids())
    assert hashlib.sha256("\n".join(out.ids()).encode()).hexdigest() == (
        "861087d8728d8953d6504615a81d72ac0667567ac2e17ea18d010ea314a5f33b")
    # the classes overlap only through "other" records: no envelope at all
    only = make_cohort([make_record(f"a{i}", label=1, age=30, gender="male", cough=True) for i in range(5)]
                       + [make_record(f"b{i}", label=0, age=30, gender="other", cough=True) for i in range(5)])
    with pytest.raises(InsufficientPool, match="age-envelope"):
        resample_general_population(only, PopulationSpec(n_pos=2, n_neg=2))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=4), unique=True, max_size=30), st.data())
def test_draw_sorted_ignores_member_order(members, data):
    k = data.draw(st.integers(0, len(members)))
    shuffled = data.draw(st.permutations(members))
    drawn = draw_sorted(members, k, 5, "cell", k)
    assert draw_sorted(shuffled, k, 5, "cell", k) == drawn
    assert len(set(drawn)) == k and set(drawn) <= set(members)
    assert draw_sorted(shuffled, len(members), 5, "cell") == sorted(members)
