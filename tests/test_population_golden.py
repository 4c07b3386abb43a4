"""Golden digests of the population path for fixed seeds.

Each entry is the sha256 of an id list (ids joined by newlines) or of the
bytes of a written CSV. Any change to the RNG streams, to the enrolment,
selection and matching rules, or to the CSV formats changes a digest.
"""

import hashlib
from dataclasses import replace

import pytest

from confound_audit.cohort import (
    Cohort,
    SplitSpec,
    load_cohort,
    load_features,
    make_manifest,
    split_cohort,
    validate_cohort,
    write_cohort,
    write_features,
)
from confound_audit.matching import TEST_SET, TRAIN_SET, MatchSpec, match_exact
from confound_audit.resample import PopulationSpec, resample_general_population
from confound_audit.synth import SynthConfig, enrol, generate_population

N = 5_000

GOLDEN = {
    3: {
        "symptoms_based": "81aefba049d35de2e1a1beca117bd18980d199270023b404fc0326f09ed9378e",
        "random": "d7b37946d909e4d2ef55addc21e322878998864cbabb7d4a5c5989f582749915",
        "matched": "9843cd96886b3f412dc9d7534ac1de2089c7d56f8a3bfeea188dfa7e4b215ab3",
        "valid": "81aefba049d35de2e1a1beca117bd18980d199270023b404fc0326f09ed9378e",
        "train": "6651f2ea6239a196b4ac5639414ab4bff84e26a29e1890886ec24bbf7e567ae6",
        "test": "d3e8ee22b0b15ca4fa106b14615f3af81fe099a59736e234c6ceed655ffd8fe3",
        "m_test": "dbb54e71fbbedcc69038e4d7a9082f1610e1112d91a6b61eacb6fe717a6e3978",
        "m_train": "0ef7e1ff917d8694272fe3998930a1275bdb4d4ff9658d11d53aed7edaeccbb0",
        "drawn": "bc81c552e89b79693d2c67051d38d1b4f6707736c2607c7787a69e0fefa01e6a",
        "population.csv": "1a1adf50d98bf3048d2023717998f4290bc837ee09a41d25f6c74c8611a47195",
        "population_features.csv": "51835573dac31fb09ce4a11af76bf9c82d71316be40246140810fa85e9769557",
        "valid.csv": "8d521b7eadb38301e38f58a0288a5c8f6cd2435dcea8a8ba89f3aca20618cc3d",
        "valid_features.csv": "6ce091bdd1a3b6b297d1286ccf0211a215a3eb420a88e02c9e83f1dd10428f20",
    },
    17: {
        "symptoms_based": "3c78ecd384dce44e1bbfc7f2b1b6d715fc5bc441236a0156c72cff0aa640d7d2",
        "random": "05b6aeea05aa7dc395f29f949f0435457db7d9d01438963c453cd16481c47eed",
        "matched": "b468a08277a84742ff8fbe52db3bc47dd544a1994dd706f0e8a7ab3dc98f35e1",
        "valid": "3c78ecd384dce44e1bbfc7f2b1b6d715fc5bc441236a0156c72cff0aa640d7d2",
        "train": "3a4b6741a4cd682149612b811ee9f38b673fddaa8bd68599bb15b6b114c60355",
        "test": "6151c8f3bc244f06987cd26007a9fd00d2a5af28a7670ce8cfd9edc8427eafe4",
        "m_test": "079a6134f9415d35c8cbb2cf2177556ba05d16d8555868d76a50aab54d0997a2",
        "m_train": "d6c811623257d645091321ab831a420da026b8079f0cbff63cfb673a74986407",
        "drawn": "055ae6990d60ea87b8e3d477e80fde99bf598366b2a43f66f406b6a029b41a7e",
        "population.csv": "ca9952eba725f50c0d1fc9df9c11b83141073e986178f09209b81101890f16e7",
        "population_features.csv": "f9041b049b8419c2361a0c112395fd668a587996a405cd22a16e42b4569ca6bf",
        "valid.csv": "92ae764ee04ce3148cf9a440d014f50723b03881da0ef8ab70c2a175dd899086",
        "valid_features.csv": "eb46f9c9932fb65f5128418eeafdf336bf9980bebf4f5fed2bfc4386815189a1",
    },
}


def _ids(cohort) -> str:
    return hashlib.sha256("\n".join(cohort.ids()).encode()).hexdigest()


def _file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def population_digests(seed: int, tmp_path) -> dict[str, str]:
    cfg = SynthConfig(n_population=N, prevalence=0.25, confounder_strength=2.0, feature_dim=8, seed=seed)
    pop = generate_population(cfg)
    out = {mode: _ids(enrol(pop, replace(cfg, enrolment=mode)))
           for mode in ("symptoms_based", "random", "matched")}
    valid, _ = validate_cohort(enrol(pop, cfg))
    train, test = split_cohort(valid, SplitSpec(train_fraction=0.5, seed=seed))
    m_test, _ = match_exact(test, MatchSpec(covariates=TEST_SET, seed=seed))
    m_train, _ = match_exact(train, MatchSpec(covariates=TRAIN_SET, seed=seed))
    drawn, _ = resample_general_population(valid, PopulationSpec(n_pos=100, n_neg=100, seed=seed), strict=False)
    for name, cohort in (("valid", valid), ("train", train), ("test", test),
                         ("m_test", m_test), ("m_train", m_train), ("drawn", drawn)):
        out[name] = _ids(cohort)

    everyone = Cohort(records=tuple(sr.record for sr in pop), manifest=make_manifest("golden"))
    for name, cohort in (("population", everyone), ("valid", valid)):
        parts, feats = tmp_path / f"{name}.csv", tmp_path / f"{name}_features.csv"
        write_cohort(cohort, str(parts))
        write_features(cohort, str(feats))
        out[parts.name], out[feats.name] = _file(parts), _file(feats)
        # a load -> write round trip gives the same bytes
        loaded = load_features(load_cohort(str(parts)), str(feats))
        write_cohort(loaded, str(parts))
        write_features(loaded, str(feats))
        assert (_file(parts), _file(feats)) == (out[parts.name], out[feats.name])
    return out


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_population_path_matches_golden_digests(seed, tmp_path):
    assert population_digests(seed, tmp_path) == GOLDEN[seed]
