"""Unit tests for the ``cobra`` command-line interface."""

import json

import pytest

from repro.cli.main import build_parser, main
from repro.provenance.serialization import save_provenance_set
from repro.workloads.telephony import example2_provenance


class TestParser:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "demo", "telephony", "batch", "sweep", "tpch", "compress", "whatif"
        ):
            assert command in text


class TestBatchCommand:
    ARGS = [
        "batch",
        "--scenarios", "12",
        "--customers", "300",
        "--zips", "5",
        "--months", "6",
    ]

    def test_full_provenance_only(self, capsys):
        assert main(self.ARGS) == 0
        output = capsys.readouterr().out
        assert "12 scenarios x 5 result groups" in output
        assert "batch evaluation (" in output
        assert "compressed provenance" not in output

    def test_with_bound_and_sequential_comparison(self, capsys, tmp_path):
        summary_path = tmp_path / "batch.json"
        assert (
            main(
                self.ARGS
                + [
                    "--bound", "120",
                    "--compare-sequential",
                    "--json", str(summary_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "compressed provenance" in output
        assert "sequential Scenario.apply + evaluate" in output
        summary = json.loads(summary_path.read_text())
        assert summary["scenarios"] == 12
        assert summary["batch_seconds"] > 0.0

    def test_unreachable_bound_is_reported_not_raised(self, capsys):
        assert main(self.ARGS + ["--bound", "10"]) == 1
        output = capsys.readouterr().out
        assert "cobra batch: no abstraction satisfies bound 10" in output

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_non_positive_scenarios_rejected(self, capsys, count):
        """A non-positive sweep size used to run an empty sweep silently."""
        args = list(self.ARGS)
        args[args.index("--scenarios") + 1] = count
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_workers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(self.ARGS + ["--workers", "2"])
        assert exit_info.value.code == 2


def _sweep_args(*extra):
    return [
        "sweep",
        "--customers", "200",
        "--zips", "5",
        "--months", "12",
        *extra,
    ]


class TestSweepCommand:
    def test_default_plan_factors_the_sweep(self, capsys):
        assert main(_sweep_args()) == 0
        output = capsys.readouterr().out
        assert '"type": "GridPlan"' in output
        assert "plan evaluation (factored):" in output
        assert "factoring: 1/1 chunks factored" in output

    def test_inline_sample_plan_with_json_summary(self, capsys, tmp_path):
        summary_path = tmp_path / "sweep.json"
        spec = json.dumps(
            {
                "type": "sample",
                "name": "mc",
                "count": 20,
                "seed": 7,
                "base": [
                    {"op": "scale", "variables": ["p1", "p2"], "amount": 0.9}
                ],
                "axes": [
                    {
                        "op": "scale",
                        "variables": ["m12"],
                        "distribution": {
                            "kind": "uniform", "low": 0.8, "high": 1.2
                        },
                    }
                ],
            }
        )
        assert (
            main(_sweep_args("--plan-json", spec, "--json", str(summary_path)))
            == 0
        )
        output = capsys.readouterr().out
        assert "20 scenarios x" in output
        summary = json.loads(summary_path.read_text())
        assert summary["scenarios"] == 20
        assert summary["plan"]["type"] == "SamplePlan"
        assert summary["plan_seconds"] > 0.0

    def test_sample_spec_without_seed_is_rejected(self, capsys):
        spec = json.dumps(
            {
                "type": "sample",
                "count": 5,
                "axes": [
                    {"op": "scale", "variables": ["m1"],
                     "distribution": {"kind": "uniform"}}
                ],
            }
        )
        assert main(_sweep_args("--plan-json", spec)) == 1
        assert "invalid plan spec" in capsys.readouterr().out

    def test_invalid_spec_json_is_rejected(self, capsys):
        assert main(_sweep_args("--plan-json", "{not json")) == 1
        assert "invalid plan spec" in capsys.readouterr().out

    def test_unreachable_bound_is_reported_not_raised(self, capsys):
        assert main(_sweep_args("--bound", "10")) == 1
        output = capsys.readouterr().out
        assert "cobra sweep: no abstraction satisfies bound 10" in output

    def test_plan_and_plan_json_are_exclusive(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text("{}")
        assert (
            main(_sweep_args("--plan", str(plan_file), "--plan-json", "{}"))
            == 1
        )
        assert "not both" in capsys.readouterr().out

    def test_input_requires_explicit_plan(self, capsys, tmp_path):
        path = tmp_path / "prov.json"
        save_provenance_set(example2_provenance(), path)
        assert main(["sweep", "--input", str(path)]) == 1
        assert "needs an explicit plan" in capsys.readouterr().out

    def test_input_with_explicit_plan(self, capsys, tmp_path):
        path = tmp_path / "prov.json"
        save_provenance_set(example2_provenance(), path)
        spec = json.dumps(
            {
                "type": "grid",
                "axes": [
                    {"op": "scale", "variables": ["p1"],
                     "values": [0.8, 1.0, 1.2]}
                ],
            }
        )
        assert main(["sweep", "--input", str(path), "--plan-json", spec]) == 0
        assert "3 scenarios x" in capsys.readouterr().out


class TestDemoCommand:
    def test_demo_runs_and_reports(self, capsys):
        assert main(["demo", "--bound", "6"]) == 0
        output = capsys.readouterr().out
        assert "Provenance polynomials" in output
        assert "Abstraction tree" in output
        assert "Chosen cut" in output
        assert "assignment speedup" in output

    def test_demo_root_bound(self, capsys):
        assert main(["demo", "--bound", "4"]) == 0
        output = capsys.readouterr().out
        assert "'Plans'" in output


class TestTelephonyCommand:
    def test_small_instance(self, capsys):
        assert (
            main(
                [
                    "telephony",
                    "--customers", "200",
                    "--zips", "5",
                    "--months", "6",
                    "--bounds", "250", "120",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Full provenance size: 330" in output
        assert "bound" in output
        assert "speedup" in output

    def test_unreachable_bound_is_reported_not_raised(self, capsys):
        args = [
            "telephony",
            "--customers", "200",
            "--zips", "5",
            "--months", "6",
            "--bounds", "250", "10",
        ]
        assert main(args) == 1
        output = capsys.readouterr().out
        assert "bound      250" in output
        assert "cobra telephony: no abstraction satisfies bound 10" in output

    @pytest.mark.parametrize(
        "flag, value",
        [("--customers", "-5"), ("--zips", "0"), ("--months", "0")],
    )
    def test_non_positive_sizes_rejected(self, capsys, flag, value):
        """Negative sizes used to crash with a numpy traceback, and zero
        months "compressed" an empty provenance."""
        args = [
            "telephony",
            "--customers", "200",
            "--zips", "5",
            "--months", "6",
            "--bounds", "250",
        ]
        args[args.index(flag) + 1] = value
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestTpchCommand:
    def test_tiny_scale(self, capsys):
        assert main(["tpch", "--scale", "0.0002", "--ratio", "0.6"]) == 0
        output = capsys.readouterr().out
        for name in ("Q1", "Q3", "Q5", "Q6", "Q10"):
            assert name in output


class TestStatsCommand:
    def test_stats_without_tree(self, tmp_path, capsys):
        provenance_path = tmp_path / "prov.json"
        save_provenance_set(example2_provenance(), provenance_path)
        assert main(["stats", "--input", str(provenance_path)]) == 0
        output = capsys.readouterr().out
        assert "monomials: 14" in output
        assert "variables: 9" in output

    def test_stats_with_tree_prints_profile(self, tmp_path, capsys):
        provenance_path = tmp_path / "prov.json"
        save_provenance_set(example2_provenance(), provenance_path)
        tree_path = tmp_path / "tree.json"
        from repro.workloads.abstraction_trees import plans_tree

        tree_path.write_text(json.dumps(plans_tree().to_dict()))
        assert main(
            ["stats", "--input", str(provenance_path), "--tree", str(tree_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "size profile" in output
        assert "14" in output  # the leaf-cut size appears in the profile


EXAMPLE2_TREE = {
    "root": "Plans",
    "edges": {
        "Plans": ["Standard", "Special", "Business"],
        "Standard": ["p1", "p2"],
        "Special": ["F", "Y", "v"],
        "F": ["f1", "f2"],
        "Y": ["y1", "y2", "y3"],
        "Business": ["SB", "e"],
        "SB": ["b1", "b2"],
    },
}


class TestCompressCommand:
    def _compress(self, tmp_path, tree, *extra):
        provenance_path = tmp_path / "prov.json"
        save_provenance_set(example2_provenance(), provenance_path)
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(json.dumps(tree))
        return main(
            [
                "compress",
                "--input", str(provenance_path),
                "--tree", str(tree_path),
                *extra,
            ]
        )

    def test_compress_round_trip(self, tmp_path, capsys):
        output_path = tmp_path / "compressed.json"
        code = self._compress(
            tmp_path, EXAMPLE2_TREE, "--bound", "8", "--output", str(output_path)
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "size: 14 ->" in output
        assert output_path.exists()
        compressed = json.loads(output_path.read_text())
        total = sum(len(group["polynomial"]["terms"]) for group in compressed["groups"])
        assert total <= 8

    def test_infeasible_bound_reports_without_traceback(self, tmp_path, capsys):
        assert self._compress(tmp_path, EXAMPLE2_TREE, "--bound", "1") == 1
        captured = capsys.readouterr()
        assert "cobra compress: " in captured.out
        assert "bound 1" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_inner_node_named_like_a_variable_is_rejected(self, tmp_path, capsys):
        tree = {"root": "Plans", "edges": {"Plans": ["p1", "v"], "p1": ["p2", "f1"]}}
        assert self._compress(tmp_path, tree, "--bound", "8") == 1
        output = capsys.readouterr().out
        assert output.startswith("cobra compress: ")
        assert "p1" in output

    @pytest.mark.parametrize("retired", ["legacy", "incremental"])
    def test_retired_strategy_names_are_rejected(self, tmp_path, capsys, retired):
        with pytest.raises(SystemExit) as exit_info:
            self._compress(
                tmp_path, EXAMPLE2_TREE, "--bound", "8", "--strategy", retired
            )
        assert exit_info.value.code == 2


class TestSemiringFlag:
    def test_demo_accepts_every_backend(self, capsys):
        from repro.provenance.backends import SEMIRING_BACKEND_NAMES

        for name in SEMIRING_BACKEND_NAMES:
            assert main(["demo", "--bound", "6", "--semiring", name]) == 0
            output = capsys.readouterr().out
            if name != "real":
                assert f"{name} semiring" in output

    def test_demo_bool_deletion_scenario(self, capsys):
        assert main(["demo", "--bound", "6", "--semiring", "bool"]) == 0
        output = capsys.readouterr().out
        assert "delete the March price tuples" in output
        assert "true" in output

    def test_unknown_semiring_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["demo", "--semiring", "viterbi"])


class TestWhatifCommand:
    def test_tropical_routing(self, capsys):
        assert main(["whatif", "--semiring", "tropical", "--scenarios", "5"]) == 0
        output = capsys.readouterr().out
        assert "tropical semiring" in output
        assert "min-cost call routing" in output
        assert "compressed under bound" in output

    def test_bool_tpch_deletions(self, capsys):
        code = main(
            ["whatif", "--semiring", "bool", "--scenarios", "5", "--scale", "0.0003"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "TPC-H segment revenue" in output
        assert "true" in output

    def test_why_witness_analysis(self, capsys):
        assert main(["whatif", "--semiring", "why", "--scenarios", "4"]) == 0
        output = capsys.readouterr().out
        assert "witness analysis" in output
        assert "delete" in output

    def test_lineage_runs(self, capsys):
        assert main(["whatif", "--semiring", "lineage", "--scenarios", "3"]) == 0
        assert "lineage semiring" in capsys.readouterr().out

    def test_real_runs(self, capsys):
        assert main(["whatif", "--semiring", "real", "--scenarios", "3"]) == 0
        assert "real semiring" in capsys.readouterr().out


class TestTraceFlags:
    BATCH_ARGS = [
        "batch",
        "--scenarios", "8",
        "--customers", "200",
        "--zips", "4",
        "--months", "6",
    ]

    def test_trace_prints_the_span_tree(self, capsys):
        assert main(["demo", "--bound", "4", "--trace"]) == 0
        output = capsys.readouterr().out
        assert "== trace ==" in output
        assert "session.compress" in output

    def test_trace_json_covers_the_pipeline_stages(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        args = self.BATCH_ARGS + ["--bound", "100", "--trace-json", str(trace_path)]
        assert main(args) == 0
        assert "trace written to" in capsys.readouterr().out
        document = json.loads(trace_path.read_text())
        assert document["version"] == 1
        names = set()

        def walk(span):
            names.add(span["name"])
            for child in span.get("children", []):
                walk(child)

        for span in document["spans"]:
            walk(span)
        for required in ("batch.evaluate", "batch.compile", "batch.lower", "batch.reduce"):
            assert required in names
        assert any(name.startswith("batch.kernel.") for name in names)
        assert document["metrics"]["counters"]["batch.evaluations"] >= 1

    def test_tracing_is_off_again_after_a_traced_run(self):
        from repro.obs import tracing_enabled

        assert main(["demo", "--bound", "4", "--trace"]) == 0
        assert not tracing_enabled()

    def test_stats_runtime_profiles_a_dumped_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(self.BATCH_ARGS + ["--trace-json", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["stats", "--runtime", str(trace_path)]) == 0
        output = capsys.readouterr().out
        assert "runtime stage profile" in output
        assert "batch.evaluate" in output
        assert "batch.evaluations" in output  # counters section

    def test_stats_requires_input_or_runtime(self, capsys):
        assert main(["stats"]) == 1
        assert "--runtime" in capsys.readouterr().out
