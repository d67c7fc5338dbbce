"""Tests for the top-level compiler driver and the compile report."""

import pytest

from tests.lime_sources import FIGURE1, SAXPY
from repro.compiler import (
    CompileOptions,
    CompilerSession,
    compile_report,
)


class TestCompileResult:
    def test_components_present(self):
        result = CompilerSession().compile(FIGURE1)
        assert result.bytecode_program.functions
        assert result.gpu_backend is not None
        assert result.fpga_backend is not None
        assert len(result.store) >= 3  # bytecode + gpu + fpga

    def test_bytecode_manifest_covers_all_tasks(self):
        result = CompilerSession().compile(FIGURE1)
        manifest = result.bytecode_artifact.manifest
        all_ids = {
            stage.task_id
            for graph in result.task_graphs
            for stage in graph.stages
        }
        assert set(manifest.task_ids) == all_ids
        assert manifest.device == "bytecode"

    def test_disable_gpu(self):
        result = CompilerSession(
            CompileOptions(enable_gpu=False)
        ).compile(FIGURE1)
        assert result.gpu_backend is None
        assert result.store.for_device("gpu") == []
        assert result.store.for_device("fpga")  # unaffected

    def test_disable_fpga(self):
        result = CompilerSession(
            CompileOptions(enable_fpga=False)
        ).compile(FIGURE1)
        assert result.fpga_backend is None
        assert result.store.for_device("fpga") == []

    def test_options_recorded(self):
        result = CompilerSession(
            CompileOptions(fpga_pipelined=True)
        ).compile(FIGURE1)
        assert result.compile_options.fpga_pipelined is True
        (artifact,) = result.store.for_device("fpga")
        assert artifact.manifest.properties["pipelined"] is True

    def test_artifact_texts(self):
        result = CompilerSession().compile(SAXPY)
        texts = result.artifact_texts("gpu")
        assert "gpu:map:Saxpy.axpy" in texts
        assert "__kernel" in texts["gpu:map:Saxpy.axpy"]

    def test_unoptimized_compilation(self):
        result = CompilerSession(
            CompileOptions(run_optimizations=False)
        ).compile(FIGURE1)
        assert result.bytecode_program.functions

    def test_filename_in_errors(self):
        from repro.errors import LimeTypeError

        with pytest.raises(LimeTypeError) as exc:
            CompilerSession().compile(
                "class T { static int f() { return true; } }",
                filename="myfile.lime",
            )
        assert "myfile.lime" in str(exc.value)


class TestCompileReport:
    def test_report_sections(self):
        report = compile_report(CompilerSession().compile(FIGURE1))
        assert "task graphs:" in report
        assert "artifacts:" in report
        assert "exclusions:" in report

    def test_report_lists_graph_shape(self):
        report = compile_report(CompilerSession().compile(FIGURE1))
        assert "source(1) => [flip] => sink" in report

    def test_report_exclusion_reasons(self):
        source = """
        class T {
            local static double f(double x) { return Math.exp(x); }
            static void m(double[[]] xs, double[] out) {
                var t = xs.source(1) => ([ task f ]) => out.sink();
                t.finish();
            }
        }
        """
        report = compile_report(CompilerSession().compile(source))
        assert "[fpga" in report
        assert "synthesizable" in report or "float" in report

    def test_report_no_graphs(self):
        report = compile_report(CompilerSession().compile("class Empty { }"))
        assert "(none discovered statically)" in report

    def test_report_no_exclusions(self):
        report = compile_report(CompilerSession().compile("class Empty { }"))
        assert "(none)" in report


class TestManifestContract:
    def test_every_artifact_has_unique_id(self):
        from repro.apps import SUITE

        for name, spec in SUITE.items():
            result = CompilerSession().compile(spec.source)
            ids = [a.artifact_id for a in result.store.all()]
            assert len(ids) == len(set(ids)), name

    def test_gpu_filter_manifests_reference_graph(self):
        result = CompilerSession().compile(FIGURE1)
        for artifact in result.store.for_device("gpu"):
            if artifact.payload.kind == "filter":
                assert artifact.manifest.graph_id is not None
                assert artifact.manifest.source_language == "opencl"

    def test_fpga_manifest_properties(self):
        result = CompilerSession().compile(FIGURE1)
        (artifact,) = result.store.for_device("fpga")
        props = artifact.manifest.properties
        assert {"luts", "flipflops", "brams", "fmax_hz"} <= set(props)

    def test_manifest_implements(self):
        result = CompilerSession().compile(FIGURE1)
        flip_id = result.task_graphs[0].stages[1].task_id
        gpu_filters = [
            a
            for a in result.store.for_device("gpu")
            if a.manifest.implements(flip_id)
        ]
        assert len(gpu_filters) == 1
