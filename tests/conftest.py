import gc

import numpy as np
import pytest

from confound_audit.cohort import Cohort, ParticipantRecord, SymptomProfile, make_manifest


def make_record(
    rid,
    label=0,
    age=30,
    gender="female",
    channel="TT",
    score=None,
    features=None,
    reported_any=None,
    other=None,
    **flags,
):
    symptoms = SymptomProfile(reported_any=reported_any, **flags)
    return ParticipantRecord(
        id=str(rid),
        label=label,
        symptoms=symptoms,
        age_years=age,
        gender=gender,
        channel=channel,
        other_covariates=other or {},
        score=score,
        features=None if features is None else np.asarray(features, dtype=float),
    )


def make_cohort(records, source="fixture"):
    return Cohort(records=tuple(records), manifest=make_manifest(source))


@pytest.fixture
def tmp_csv(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector_state(request):
    """Run a test with the cyclic collector on, then off; restore it after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()
