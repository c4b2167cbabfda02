"""Tests for the golden-result regression harness."""

import json
import shutil

import pytest

from repro.evalx import EXPERIMENTS
from repro.evalx.golden import (
    DEFAULT_DIR,
    GOLDEN_SCALE,
    GOLDEN_SEED,
    compare_goldens,
    write_goldens,
)


@pytest.fixture(scope="module")
def written_goldens(tmp_path_factory):
    """One golden set for the module: ``(directory, written paths)``.

    Regenerating every golden is the slow part of these tests, so it
    happens once; tests that mutate a golden work on a private copy.
    """
    directory = tmp_path_factory.mktemp("goldens")
    return directory, write_goldens(directory, scale=0.25, seed=3)


@pytest.fixture
def goldens(written_goldens, tmp_path):
    """A private, mutable copy of the module's golden set."""
    directory = tmp_path / "goldens"
    shutil.copytree(written_goldens[0], directory)
    return directory


class TestHarness:
    def test_write_then_compare_clean(self, written_goldens):
        directory, written = written_goldens
        assert len(written) == len(EXPERIMENTS)
        assert compare_goldens(directory) == []

    def test_detects_changed_value(self, goldens):
        path = goldens / "fig07.json"
        payload = json.loads(path.read_text())
        payload["rows"][0][1] = 999.0
        path.write_text(json.dumps(payload))
        deviations = compare_goldens(goldens)
        assert any("fig07 row 0" in d for d in deviations)

    def test_detects_missing_golden(self, goldens):
        (goldens / "fig09.json").unlink()
        deviations = compare_goldens(goldens)
        assert any("fig09" in d and "no golden" in d for d in deviations)

    def test_detects_header_change(self, goldens):
        path = goldens / "fig06.json"
        payload = json.loads(path.read_text())
        payload["headers"][0] = "Renamed"
        path.write_text(json.dumps(payload))
        deviations = compare_goldens(goldens)
        assert any("fig06" in d and "headers" in d for d in deviations)

    def test_empty_directory_reported(self, tmp_path):
        deviations = compare_goldens(tmp_path / "nothing")
        assert deviations and "no goldens" in deviations[0]

    def test_unknown_golden_reported(self, goldens):
        (goldens / "fig99.json").write_text("{}")
        deviations = compare_goldens(goldens)
        assert any("fig99" in d for d in deviations)


class TestCheckedInGoldens:
    """The repository's own goldens must match the current build."""

    def test_goldens_exist(self):
        assert DEFAULT_DIR.exists()
        assert len(list(DEFAULT_DIR.glob("*.json"))) == len(EXPERIMENTS)

    def test_build_matches_goldens(self):
        deviations = compare_goldens()
        assert deviations == [], "\n".join(deviations)

    def test_goldens_recorded_at_expected_scale(self):
        sample = json.loads(
            (DEFAULT_DIR / "table1.json").read_text()
        )
        assert sample["scale"] == GOLDEN_SCALE
        assert sample["seed"] == GOLDEN_SEED
