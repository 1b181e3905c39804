"""Golden renderings: the bytes every experiment prints, pinned.

``GOLDEN`` holds the sha256 of each registered experiment's
``render()`` at 20,000 instructions, seed 3.  Any change to what an
experiment computes, how its cells merge, or how it renders shows up
here as a digest mismatch; a deliberate change to the reproduced
numbers updates the digests in the same commit and bumps
``MODEL_VERSION``, which ``GOLDEN_PIN`` ties to this table.

The other tests pin the single decomposition every experiment uses:
``plan_cells`` keys are unique, and a sub-grid run equals the matching
entries of the full grid.
"""

import hashlib
import json

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    EXTENSION_EXPERIMENTS,
    figure1,
    figure6,
)
from repro.experiments.common import MODEL_VERSION, ExperimentSettings
from repro.plan.executor import run_report
from repro.workloads import registry

SETTINGS = ExperimentSettings(n_instructions=20_000, seed=3)
REGISTRY = {**ALL_EXPERIMENTS, **EXTENSION_EXPERIMENTS}

GOLDEN = {
    "table1":
        "54da3fee575459ae441ab58bc82159dd9a604d5456ab48c5e6798fc709e39eb4",
    "table2":
        "8b06523901c237d8c391663df13c719c73a76b43c76654b58e796bf1efe096cd",
    "table3":
        "678ec72b4bf3a93ddcfe206b7e63b17ee17cfb1fbc5fd6afe13ec1f23f76ad69",
    "table4":
        "7f1644725ed5b92a6d9465691052e988df652a0467d8d669bc244c587fdc8bfe",
    "table5":
        "015b44eff57d30cf34e67e11e975634948dc2695f9f3008b92a8a6015233c59b",
    "table6":
        "9d78508d15f9dedbdfe17c32e574ba86f5f4748ae63b259f16bc2da5bb800b50",
    "table7":
        "38ed47c021c36a425e8a4338600f952a2b8914d67bac1488678e1206a045f60e",
    "table8":
        "21403d5c6bc920d8a244a43278a9d5ba4d1834595d72e346b93e814877077c18",
    "figure1":
        "eef1e95b37b16991ad44743e1a3de8bc4ca815091f7791c01987b4832385079e",
    "figure2":
        "539253292a13a136c328d79f5e08ab2845492b56a68dd92d5bb25744e515b28e",
    "figure3":
        "9e5608a65cd2f4ab10787f125cf3eee10627857941efed2130e816ff3aaebe2c",
    "figure4":
        "e0145b5681bdedd4797d10d9490af4483c3b64755b70e5f121472d2ed499f249",
    "figure5":
        "77a52310c27145f3262e31ba0bdba602be393a3bce17f80162105649f5955796",
    "figure6":
        "30b87be63945431bb32442d6717d7c82610c84b718e17cb69b513603a0e65b03",
    "figure7":
        "0ea9a208af050083102e7cf230174b9dec5ff9bf1cfa09e6b90a8daf8cc3eea5",
    "ext_components":
        "ae7ec962c56adc74703a94d55ea5e9196f274a3ed5e83aa5827f7796f0ab6f5c",
    "ext_sensitivity":
        "18a15d7983eedd46a4a7a1df5a6735dfbab1f3b3b46df99280049c7b91d33dff",
    "ext_methodology":
        "9af56b29315470cdb4921276767dedd1839807c74006e1478984a6c55b1ace70",
    "ext_subblock":
        "a6e862b9fbb09e0a2920feaf0ef0c3a099cd2f7f5288e7642564af3269c75048",
    "ext_multiissue":
        "e92b5ddeac2767b69db0325ad88a33c74dee7d2850129bdd8668e92554ac5939",
}

#: sha256 of ``MODEL_VERSION`` with the sorted ``GOLDEN`` table.  Every
#: result key carries ``MODEL_VERSION``, so a change to the numbers must
#: bump it, or a persistent result store keeps serving the old ones.
#: Deleting a retired experiment's entry changes no stored number, so
#: it re-pins without a bump.
GOLDEN_PIN = "4969c7b7d8c055b9dbcd2b560b4acedede6d4fde794b4503c533854e4d8f41de"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_table_is_pinned_to_model_version():
    pinned = digest(json.dumps([MODEL_VERSION, sorted(GOLDEN.items())]))
    assert pinned == GOLDEN_PIN, (
        "GOLDEN changed: bump MODEL_VERSION in "
        "repro/experiments/settings.py, then re-pin GOLDEN_PIN"
    )


@pytest.fixture(autouse=True, scope="module")
def _no_disk_cache():
    saved = registry._disk_cache
    registry.set_trace_cache_backend(None)
    yield
    registry._disk_cache = saved
    registry.clear_trace_cache()


@pytest.fixture(scope="module")
def renderings(_no_disk_cache):
    rendered, _ = run_report(REGISTRY, SETTINGS, jobs=1)
    return dict(rendered)


def test_every_experiment_is_pinned():
    assert list(GOLDEN) == list(REGISTRY)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_rendering_matches_golden(renderings, name):
    assert digest(renderings[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", list(REGISTRY))
def test_plan_cells_have_unique_keys(name):
    keys = [cell.key for cell in REGISTRY[name].plan_cells(SETTINGS)]
    assert keys
    assert len(set(keys)) == len(keys)


class TestSubGrid:
    """A narrowed sweep computes exactly the full grid's entries."""

    def test_figure1_cache_sizes(self):
        sizes = (16 * 1024, 128 * 1024)
        full = figure1.run(SETTINGS)
        sub = figure1.run(SETTINGS, cache_sizes=sizes)
        assert sub.curves == {
            suite: {size: curve[size] for size in sizes}
            for suite, curve in full.curves.items()
        }

    def test_figure6_bandwidths_and_line_sizes(self):
        bandwidths = (8, 32)
        line_sizes = (16, 64, 256)
        full = figure6.run(SETTINGS)
        sub = figure6.run(
            SETTINGS, bandwidths=bandwidths, line_sizes=line_sizes
        )
        assert sub.cells == {
            (bw, line): full.cells[(bw, line)]
            for line in line_sizes
            for bw in bandwidths
        }
