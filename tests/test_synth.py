import gc
from contextlib import nullcontext

import numpy as np
import pytest
from scipy.stats import norm

from confound_audit import synth
from confound_audit.cohort import Cohort, load_cohort, load_features, make_manifest, write_cohort, write_features
from confound_audit.errors import BadValue, ConfigError, EmptyEnrolment
from confound_audit.matching import stratum_keyer, TEST_SET, MatchSpec
from confound_audit.metrics import ScoredLabels, any_symptom_table, auc, table_2x2_stats
from confound_audit.synth import SynthConfig, enrol, generate_cohort, generate_population


def phi_label_vs_any(cohort):
    return table_2x2_stats(any_symptom_table(cohort)).phi


def test_invalid_configs():
    # a config checks itself when it is built and names the bad field
    for key, value in (("prevalence", 0.0), ("w_sym_pos", 1.5), ("noise_sd", 0.0), ("enrolment", "snowball")):
        with pytest.raises(ConfigError) as err:
            SynthConfig(**{key: value})
        assert err.value.key == key


def test_determinism():
    cfg = SynthConfig(n_population=500, prevalence=0.3, signal_strength=1.0,
                      confounder_strength=2.0, feature_dim=5, seed=123)
    c1, _ = generate_cohort(cfg)
    c2, _ = generate_cohort(cfg)
    assert c1.ids() == c2.ids()
    assert np.array_equal(c1.feature_matrix(), c2.feature_matrix())


def test_different_seed_differs():
    base = dict(n_population=500, prevalence=0.3, feature_dim=3)
    c1, _ = generate_cohort(SynthConfig(**base, seed=1))
    c2, _ = generate_cohort(SynthConfig(**base, seed=2))
    assert c1.ids() != c2.ids() or not np.array_equal(c1.feature_matrix(), c2.feature_matrix())


def test_no_signal_null_auc():
    cfg = SynthConfig(n_population=4000, prevalence=0.5, enrolment="random", random_p=1.0,
                      signal_strength=0.0, confounder_strength=0.0, feature_dim=3, seed=11)
    pop = generate_population(cfg)
    y = np.array([sr.record.label for sr in pop])
    s = np.array([sr.record.features[0] for sr in pop])
    assert abs(auc(ScoredLabels(s, y)) - 0.5) < 0.03


@pytest.mark.slow
def test_symptom_rates_match_defaults_at_scale():
    cfg = SynthConfig(n_population=1_000_000, prevalence=0.02, feature_dim=2, seed=5)
    pop = generate_population(cfg)
    y = np.array([sr.record.label for sr in pop])
    sym = np.array([sr.record.symptoms.any_symptom for sr in pop])
    assert abs(sym[y == 1].mean() - 0.65) < 0.01
    assert abs(sym[y == 0].mean() - 0.20) < 0.01


def test_gaussian_auc_closed_form():
    alpha = 2.0
    cfg = SynthConfig(n_population=20000, prevalence=0.5, enrolment="random", random_p=1.0,
                      signal_strength=alpha, confounder_strength=0.0, feature_dim=4,
                      noise_sd=1.0, seed=7)
    pop = generate_population(cfg)
    y = np.array([sr.record.label for sr in pop])
    s = np.array([sr.record.features[0] for sr in pop])
    expected = norm.cdf(alpha / np.sqrt(2.0))
    assert abs(auc(ScoredLabels(s, y)) - expected) < 0.01


def test_random_enrolment_preserves_phi():
    base = dict(n_population=60000, prevalence=0.05, feature_dim=2, seed=21)
    pop = generate_population(SynthConfig(**base, enrolment="random"))
    full_t = [[0, 0], [0, 0]]
    for sr in pop:
        full_t[int(sr.record.symptoms.any_symptom)][sr.record.label] += 1
    pop_phi = table_2x2_stats(full_t).phi
    enrolled = enrol(pop, SynthConfig(**base, enrolment="random"))
    assert abs(phi_label_vs_any(enrolled) - pop_phi) < 0.02


def test_symptom_enrolment_inflates_phi():
    base = dict(n_population=60000, prevalence=0.05, feature_dim=2, seed=22)
    cfg_r = SynthConfig(**base, enrolment="random")
    cfg_s = SynthConfig(**base, enrolment="symptoms_based")
    phi_r = phi_label_vs_any(enrol(generate_population(cfg_r), cfg_r))
    phi_s = phi_label_vs_any(enrol(generate_population(cfg_s), cfg_s))
    assert phi_s > phi_r


def test_collider_margin_at_scale():
    base = dict(n_population=100_000, prevalence=0.05, feature_dim=2, seed=42)
    cfg_s = SynthConfig(**base, enrolment="symptoms_based")
    cfg_r = SynthConfig(**base, enrolment="random")
    phi_s = phi_label_vs_any(enrol(generate_population(cfg_s), cfg_s))
    phi_r = phi_label_vs_any(enrol(generate_population(cfg_r), cfg_r))
    assert abs(phi_s) > abs(phi_r) + 0.05


def test_matched_enrolment_balances_strata_exactly():
    cfg = SynthConfig(n_population=30000, prevalence=0.3, enrolment="matched", feature_dim=2, seed=3)
    pop = generate_population(cfg)
    cohort = enrol(pop, cfg)
    assert phi_label_vs_any(cohort) == 0.0
    spec = MatchSpec(covariates=TEST_SET, include_channel=False, seed=cfg.seed)
    per_stratum = {}
    for r in cohort.records:
        key = stratum_keyer(spec)(r)
        per_stratum.setdefault(key, [0, 0])[r.label] += 1
    assert per_stratum
    for neg, pos in per_stratum.values():
        assert neg == pos


def test_second_enrolment_leaves_first_cohort_unchanged():
    base = dict(n_population=2000, prevalence=0.3, feature_dim=2, seed=8)
    cfg = SynthConfig(**base)
    pop = generate_population(cfg)
    ids = enrol(pop, cfg).ids()
    assert enrol(pop, SynthConfig(**base, enrolment="random")).ids() != ids
    assert enrol(pop, cfg).ids() == ids


def test_empty_population_rejected():
    cfg = SynthConfig(n_population=10, seed=0)
    with pytest.raises(EmptyEnrolment):
        enrol([], cfg)


def test_matched_enrolment_lets_other_faults_through(monkeypatch):
    # only an empty match is an empty enrolment; any other fault propagates
    def broken(*_args, **_kwargs):
        raise RuntimeError("fault inside matching")

    monkeypatch.setattr(synth, "match_exact", broken)
    cfg = SynthConfig(n_population=500, prevalence=0.3, feature_dim=2, enrolment="matched", seed=1)
    with pytest.raises(RuntimeError, match="fault inside matching"):
        enrol(generate_population(cfg), cfg)


@pytest.mark.parametrize("raises", [False, True], ids=["builds", "raises"])
def test_generate_population_leaves_the_collector_as_it_found_it(collector_state, monkeypatch, raises):
    if raises:
        monkeypatch.setattr(synth, "SynthRecord", lambda **_: 1 / 0)
    with pytest.raises(ZeroDivisionError) if raises else nullcontext():
        generate_population(SynthConfig(n_population=50, seed=1))
    assert gc.isenabled() is collector_state


def test_bulk_builders_leave_no_reference_cycles(tmp_path):
    # the builders pause the collector because their records hold no cycles:
    # with it off throughout, a collection after them must find nothing
    cfg = SynthConfig(n_population=5000, feature_dim=3, seed=4)
    parts, feats, bad = (str(tmp_path / name) for name in ("p.csv", "f.csv", "bad.csv"))
    cohort = Cohort(tuple(sr.record for sr in generate_population(cfg)), make_manifest("fixture"))
    write_cohort(cohort, parts)
    write_features(cohort, feats)
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("id,f0,f1,f2\nsyn-0000000,0.5,x,1\n")
    del cohort
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        population = generate_population(cfg)
        loaded = load_features(load_cohort(parts), feats)
        with pytest.raises(BadValue):
            load_features(loaded, bad)
        del population, loaded
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
