"""Unit tests for PWL input-histogram capture (repro.obs.capture)."""

import numpy as np
import pytest

from repro.obs.capture import (HistogramCapture, capture_enabled,
                               disable_capture, enable_capture, get_capture)

BPS = np.array([-1.0, 0.0, 1.0])


@pytest.fixture(autouse=True)
def _capture_off():
    disable_capture()
    get_capture().clear()
    yield
    disable_capture()
    get_capture().clear()


class TestRecord:
    def test_segment_counts(self):
        cap = HistogramCapture()
        # searchsorted(side="right") index per element: 0 is below the
        # first breakpoint, len(bps) is above the last.
        idx = np.array([0, 1, 1, 2, 3, 3, 3])
        cap.record("gelu", BPS, idx)
        assert cap.counts("gelu").tolist() == [1, 2, 1, 3]

    def test_calls_accumulate(self):
        cap = HistogramCapture()
        cap.record("gelu", BPS, np.array([1, 1]))
        cap.record("gelu", BPS, np.array([1, 2]))
        assert cap.counts("gelu").tolist() == [0, 3, 1, 0]

    def test_labels_separate(self):
        cap = HistogramCapture()
        cap.record("gelu", BPS, np.array([1]))
        cap.record("silu", BPS, np.array([2]))
        assert cap.labels() == ["gelu", "silu"]

    def test_multidim_indices_ravel(self):
        cap = HistogramCapture()
        cap.record("gelu", BPS, np.array([[1, 1], [2, 2]]))
        assert cap.counts("gelu").tolist() == [0, 2, 2, 0]

    def test_widening_breakpoint_table_grows_histogram(self):
        cap = HistogramCapture()
        cap.record("act", BPS, np.array([1]))
        wider = np.linspace(-2.0, 2.0, 7)
        cap.record("act", wider, np.array([7]))
        counts = cap.counts("act")
        assert counts.size == wider.size + 1
        assert counts[1] == 1 and counts[7] == 1


class TestResults:
    def test_histograms_outside_domain(self):
        cap = HistogramCapture()
        cap.record("gelu", BPS, np.array([0, 1, 2, 3]))
        doc = cap.histograms()["gelu"]
        assert doc["breakpoints"] == BPS.tolist()
        assert doc["total"] == 4
        assert doc["outside_domain"] == 2  # below-range + above-range
        assert doc["outside_share"] == pytest.approx(0.5)

    def test_density_normalised(self):
        cap = HistogramCapture()
        cap.record("gelu", BPS, np.array([1, 1, 2]))
        dens = cap.density("gelu")
        assert dens.sum() == pytest.approx(1.0)
        assert dens.tolist() == [0.0, 2 / 3, 1 / 3, 0.0]

    def test_clear(self):
        cap = HistogramCapture()
        cap.record("gelu", BPS, np.array([1]))
        cap.clear()
        assert cap.labels() == []

    def test_save_load_roundtrip(self, tmp_path):
        cap = HistogramCapture()
        cap.record("gelu", BPS, np.array([0, 1, 3]))
        path = cap.save(tmp_path / "sub" / "hist.json")
        doc = HistogramCapture.load(path)
        assert doc == cap.histograms()

    def test_load_rejects_non_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="not a histogram document"):
            HistogramCapture.load(path)


class TestProcessState:
    def test_enable_disable(self):
        assert not capture_enabled()
        cap = enable_capture()
        assert capture_enabled() and cap is get_capture()
        disable_capture()
        assert not capture_enabled()

    def test_enable_clear_drops_prior(self):
        get_capture().record("old", BPS, np.array([1]))
        enable_capture(clear=True)
        assert get_capture().labels() == []


class TestCompiledVariants:
    def test_fused_and_unfused_programs_record_identical_histograms(self):
        # Fusion moves the PWL apply into a fused epilogue; the capture
        # must not be able to tell (same lookup, same labels, same bins).
        from repro.core.fit import FitConfig
        from repro.graph.passes import (make_pwl_approximators,
                                        replace_activations)
        from repro.graph.program import compile_graph
        from repro.zoo.builders import BUILDERS

        cfg = FitConfig(max_steps=60, refine_steps=25, max_refine_rounds=1,
                        polish=False, grid_points=512)
        graph = BUILDERS["vit"](act="gelu", scale=0.25, seed=7)
        approx = make_pwl_approximators(["gelu", "softmax"], 8, config=cfg)
        graph, n_rewritten = replace_activations(graph, approx)
        assert n_rewritten >= 2
        plain = compile_graph(graph, optimize=False)
        fused = compile_graph(graph, optimize=True)
        assert any(cn.op_type == "fused" for cn in fused.nodes)

        name, shape = graph.inputs[0]
        rng = np.random.default_rng(3)
        # Batch 1 stays under the lookup's size switch, batch 64 clears it.
        feeds = [{name: rng.normal(size=(batch,) + tuple(shape[1:]))}
                 for batch in (1, 64)]

        hists = []
        for program in (plain, fused):
            enable_capture(clear=True)
            for feed in feeds:
                program.run(feed)
            disable_capture()
            hists.append(get_capture().histograms())
        assert set(hists[0]) == {"gelu", "softmax.exp"}
        assert hists[0] == hists[1]
