import json
import sys
from collections import Counter

import numpy as np
import pytest

from anisolab import gauss_analysis as ga, harness, integrand as ig, spectrum as spx, surface as sf
from anisolab.cli import gauss_payload, main
from anisolab.errors import InvalidSpec
from anisolab.harness import (
    REQUIRED_CHECKS,
    ExperimentConfig,
    RunContext,
    accept_candidate,
    parse_surface,
    selftest,
    verify_bounds,
)
from conftest import higher_order_enneper

C1 = ig.constant(1.0)
TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def catenoid_report():
    config = ExperimentConfig(
        surface="catenoid:3",
        grid=96,
        domains=[[0, TWO_PI, -1, 1], [0, TWO_PI, -2, 2], [0, TWO_PI, -2.8, 2.8]],
    )
    return verify_bounds(config)


class TestAcceptCandidate:
    def test_catenoid_accepted(self):
        patch = sf.fixture("catenoid", grid=(96, 96), v_extent=2.0)
        out = accept_candidate(patch, C1)
        assert out["accepted"]
        assert out["sup_h_gamma"] < 1e-9

    def test_sphere_rejected(self):
        out = accept_candidate(sf.fixture("sphere", grid=(64, 64)), C1)
        assert not out["accepted"]
        assert out["relative"] == pytest.approx(2.0, rel=1e-6)

    def test_identity_shear_with_round_quadratic_weight(self):
        patch = sf.fixture("sheared_catenoid", grid=(64, 64), shear=np.eye(3), v_extent=2.0)
        out = accept_candidate(patch, ig.ellipsoid(1, 1, 1))
        assert out["accepted"]

    def test_matched_shear_accepted_mismatched_rejected(self):
        shear = np.diag([1.0, 1.0, 2.0])
        patch = sf.fixture("sheared_catenoid", grid=(64, 64), shear=shear, v_extent=2.0)
        assert accept_candidate(patch, ig.ellipsoid(1, 1, 2))["accepted"]
        assert not accept_candidate(patch, ig.ellipsoid(2, 1, 1))["accepted"]


class TestVerifyBounds:
    def test_catenoid_all_checks_pass(self, catenoid_report):
        rep = catenoid_report
        assert rep["all_passed"]
        assert rep["spectral"]["stabilized_index"] == 1
        pg = rep["gauss"]["pseudographs"]["0,0,1"]
        assert pg["lower_bound"] == 1
        assert rep["comparison_counts"][-1]["neg_Lgamma"] >= 1

    def test_check_registry_covered(self, catenoid_report):
        names = [c["name"] for c in catenoid_report["checks"]]
        assert names == list(REQUIRED_CHECKS)
        assert len(names) == 16
        (agreement,) = [c for c in catenoid_report["checks"]
                        if c["name"] == "inertia_count_agreement"]
        assert agreement["passed"] is True
        assert agreement["lhs"] == agreement["rhs"] == [0, 1, 1]

    @pytest.mark.parametrize("count, passed", [(None, None), (7, False)])
    def test_inertia_check_never_passes_unverified(self, monkeypatch, count, passed):
        # a guarded-out factorization skips the check, a disagreement fails it
        monkeypatch.setattr(harness, "inertia", lambda *args, **kwargs: count)
        rep = verify_bounds(ExperimentConfig(surface="plane", grid=32))
        (check,) = [c for c in rep["checks"] if c["name"] == "inertia_count_agreement"]
        assert check["passed"] is passed
        assert check["lhs"] == [count] * 3

    def test_euler_violation_fails_the_check(self, monkeypatch):
        # a violating pseudograph is a failed check in a complete report
        pg = ga.Pseudograph(
            vertices=[], edges=[ga.PseudographEdge(np.zeros((4, 2)), True)],
            n_components_complement=1, genus=0, band_tol=0.1, v_count=0, e_count=2,
        )
        monkeypatch.setattr(harness, "pseudograph_extract", lambda *args, **kwargs: pg)
        rep = verify_bounds(ExperimentConfig(surface="plane", grid=32))
        assert [c["name"] for c in rep["checks"]] == list(REQUIRED_CHECKS)
        (check,) = [c for c in rep["checks"] if c["name"] == "pseudograph_euler_inequality"]
        assert check["passed"] is False
        assert check["lhs"] == -3
        assert "pseudograph_euler_inequality" in rep["failed_checks"]

    def test_every_check_carries_tolerance(self, catenoid_report):
        for c in catenoid_report["checks"]:
            assert "tolerance" in c and "name" in c and "note" in c

    def test_enneper_passes(self):
        rep = verify_bounds(ExperimentConfig(surface="enneper:1.3", grid=96))
        assert rep["all_passed"]
        assert rep["spectral"]["stabilized_index"] == 1

    def test_plane_diagnostic_no_failures(self):
        rep = verify_bounds(ExperimentConfig(surface="plane", grid=48))
        assert rep["accepted"]
        assert rep["spectral"]["stabilized_index"] == 0
        assert rep["all_passed"]
        skipped = {c["name"] for c in rep["checks"] if c["passed"] is None}
        assert "low_genus_instability" in skipped  # planar case is excluded

    def test_sheared_candidate_passes_via_gate_only(self):
        rep = verify_bounds(
            ExperimentConfig(
                surface="sheared_catenoid:1,0,0,0,1,0,0,0,2;2",
                integrand="ellipsoid:1,1,2",
                grid=96,
            )
        )
        assert rep["accepted"]
        assert rep["all_passed"]
        assert rep["spectral"]["stabilized_index"] == 1

    def test_determinism_byte_identical(self):
        config = ExperimentConfig(surface="catenoid:2", grid=48)
        a = json.dumps(verify_bounds(config))
        b = json.dumps(verify_bounds(config))
        assert a == b

    def test_selftest_flips_checks(self):
        result = selftest(grid=48)
        assert result["ok"]
        assert result["honest_all_passed"]
        assert len(result["corruption_flipped_checks"]) >= 1


class TestConfig:
    def test_round_trip(self):
        config = ExperimentConfig(
            surface="enneper:1.3",
            integrand="sh:2,0,0.05",
            grid=64,
            domains=[[0.2, 0.8, 0.2, 0.8], [0.1, 0.9, 0.1, 0.9], [0, 1, 0, 1]],
            genus=0,
            seed=7,
        )
        assert ExperimentConfig.from_json(config.to_json()) == config

    def test_parse_surface_grammar(self):
        assert parse_surface("plane", 16).name == "plane"
        assert parse_surface("plane:2,3", 16).domain == (0.0, 2.0, 0.0, 3.0)
        assert parse_surface("catenoid:1.5", 16).domain[3] == 1.5
        assert parse_surface("enneper:1.2", 16).domain == (-1.2, 1.2, -1.2, 1.2)
        p = parse_surface("sheared_catenoid:1,0,0,0,1,0,0,0,2;1.5", 16)
        assert p.name == "sheared_catenoid"
        with pytest.raises(ValueError):
            parse_surface("torus", 16)


class TestCli:
    def test_wulff_writes_obj(self, tmp_path):
        out = tmp_path / "w.obj"
        assert main(["wulff", "--integrand", "const:1", "--refine", "2", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("v ")
        assert " f " not in text.splitlines()[0]

    def test_solve_graph_then_spectrum_roundtrip(self, tmp_path):
        sol = tmp_path / "sol.json"
        rc = main(
            [
                "solve-graph", "--integrand", "const:1",
                "--domain", "1.2,2,-0.4,0.4", "--grid", "49",
                "--bc", "catenoid", "--out", str(sol),
            ]
        )
        assert rc == 0
        payload = json.loads(sol.read_text())
        assert payload["converged"]
        assert payload["status"] == "converged"
        assert payload["residual_history"][-1] == payload["residual_linf"]
        assert len(payload["u"]) == 49 * 49
        spec_out = tmp_path / "spec.json"
        rc = main(
            ["spectrum", "--surface", str(sol), "--integrand", "const:1",
             "--out", str(spec_out)]
        )
        assert rc == 0
        rep = json.loads(spec_out.read_text())
        assert rep["stabilized_index"] == 0  # small stable graph piece
        verdict = tmp_path / "verdict.json"
        rc = main(
            ["bounds", "--surface", str(sol), "--integrand", "const:1",
             "--out", str(verdict)]
        )
        report = json.loads(verdict.read_text())
        assert report["accepted"]
        assert rc == (0 if report["all_passed"] else 1)
        # both views read the same run
        assert report["comparison_counts"] == rep.pop("comparison_counts")
        assert report["spectral"] == rep

    def test_solution_integrand_must_match(self, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        main(
            ["solve-graph", "--integrand", "const:1", "--domain", "1.2,2,-0.4,0.4",
             "--grid", "17", "--bc", "catenoid", "--out", str(sol)]
        )
        capsys.readouterr()
        rc = main(["spectrum", "--surface", str(sol), "--integrand", "ellipsoid:1,1,2"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: InvalidSpec: ")
        config = ExperimentConfig(surface=str(sol), integrand="ellipsoid:1,1,2")
        with pytest.raises(InvalidSpec):
            RunContext(config).patch
        # compared as specs, so another spelling of const:1 is accepted
        rc = main(
            ["curvature", "--surface", str(sol), "--integrand", "const:1.0",
             "--out", str(tmp_path / "c.obj")]
        )
        assert rc == 0
        # and weights that print alike but differ are not
        near = tmp_path / "near.json"
        near.write_text(json.dumps({**json.loads(sol.read_text()), "integrand": "const:1.0000001"}))
        capsys.readouterr()
        rc = main(["curvature", "--surface", str(near), "--integrand", "const:1.0000002",
                   "--out", str(tmp_path / "c.obj")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: InvalidSpec: ")

    def test_solution_without_status_still_loads(self, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        rc = main(
            ["solve-graph", "--integrand", "const:1", "--domain", "1.2,2,-0.4,0.4",
             "--grid", "17", "--bc", "catenoid", "--out", str(sol)]
        )
        assert rc == 0
        assert "status=converged" in capsys.readouterr().err
        payload = json.loads(sol.read_text())
        old = tmp_path / "old.json"
        old.write_text(json.dumps(
            {k: v for k, v in payload.items() if k not in ("status", "residual_history")}))
        new_patch = parse_surface(str(sol), 17, "const:1")
        old_patch = parse_surface(str(old), 17, "const:1")
        assert np.array_equal(old_patch.position, new_patch.position)

    def test_curvature_export_with_sidecar(self, tmp_path):
        out = tmp_path / "c.obj"
        rc = main(
            ["curvature", "--surface", "catenoid:1.5", "--integrand", "const:1",
             "--grid", "32", "--out", str(out)]
        )
        assert rc == 0
        sidecar = json.loads((tmp_path / "c.obj.json").read_text())
        assert set(sidecar) == {"h_gamma", "k_sigma", "k_gamma"}
        assert len(sidecar["k_sigma"]) == 32 * 32

    def test_gauss_command(self, tmp_path):
        out = tmp_path / "g.json"
        rc = main(
            ["gauss", "--surface", "catenoid:2", "--integrand", "const:1",
             "--grid", "64", "--axis", "0,0,1", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["pseudograph"]["N"] == 2
        assert payload["pseudograph"]["lower_bound"] == 1

    def test_bounds_exit_codes(self, tmp_path):
        out = tmp_path / "v.json"
        rc = main(
            ["bounds", "--surface", "catenoid:2", "--integrand", "const:1",
             "--grid", "48", "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["all_passed"]

    def test_bounds_config_file(self, tmp_path):
        cfg = ExperimentConfig(surface="plane", grid=32)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        assert main(["bounds", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 0

    def test_selftest_command(self):
        assert main(["selftest", "--grid", "48"]) == 0

    def test_boundary_data_from_file(self, tmp_path):
        bc = tmp_path / "bc.json"
        bc.write_text(json.dumps({"bc": "linear:0.3,-0.7,0.2"}))
        sol = tmp_path / "sol.json"
        rc = main(
            ["solve-graph", "--integrand", "ellipsoid:1,1,2",
             "--domain", "0,1,0,1", "--grid", "33", "--bc", str(bc),
             "--out", str(sol)]
        )
        assert rc == 0
        assert json.loads(sol.read_text())["iterations"] == 0

    @pytest.mark.parametrize("case", [
        "integrand", "config_key", "surface", "domains", "axis_number", "axis_length",
        "axis_zero", "graph_domain_number", "graph_domain_length", "graph_grid",
        "spectrum_k_zero", "spectrum_k_negative", "bounds_grid_zero", "gauss_grid_two",
        "wulff_refine_negative", "config_one_domain", "config_grid_string",
        "config_missing", "config_bad_json", "config_axis_zero", "domains_two",
        "bc_file_names_itself", "bc_file_without_bc", "solution_missing_keys",
        "solution_bad_json", "config_no_axes", "config_surface_number",
        "config_tolerance_string",
    ])
    def test_bad_input_exits_2(self, tmp_path, capsys, case):
        cfg = tmp_path / "cfg.json"
        cfg.write_text({
            "config_one_domain": json.dumps({"surface": "plane", "domains": [[0, 1, 0, 1]]}),
            "config_grid_string": json.dumps({"surface": "plane", "grid": "24"}),
            "config_bad_json": '{"surface": ',
            "config_axis_zero": json.dumps({"surface": "plane", "axes": [[0, 0, 0]]}),
            "config_no_axes": json.dumps({"surface": "plane", "axes": []}),
            "config_surface_number": json.dumps({"surface": 5}),
            "config_tolerance_string": json.dumps({"surface": "plane", "minimal_accept": "x"}),
            "bc_file_names_itself": json.dumps({"bc": str(cfg)}),
            "bc_file_without_bc": json.dumps({"boundary": "zero"}),
            "solution_missing_keys": json.dumps({"integrand": "const:1"}),
            "solution_bad_json": "{",
        }.get(case, json.dumps({"surface": "plane", "bogus": 1})))
        gauss = ["gauss", "--surface", "plane", "--integrand", "const:1", "--grid", "16"]
        graph = ["solve-graph", "--integrand", "const:1", "--bc", "catenoid"]
        spectrum = ["spectrum", "--surface", "catenoid:2", "--integrand", "const:1"]
        argv = {
            "integrand": ["wulff", "--integrand", "foo:1", "--out", str(tmp_path / "w.obj")],
            "surface": ["bounds", "--surface", "torus"],
            "domains": ["spectrum", "--surface", "plane", "--integrand", "const:1",
                        "--domains", "1,2,3"],
            "axis_number": gauss + ["--axis", "0,0,x"],
            "axis_length": gauss + ["--axis", "0,0"],
            "axis_zero": gauss + ["--axis", "0,0,0"],
            "graph_domain_number": graph + ["--domain", "1.2,2,x,0.4"],
            "graph_domain_length": graph + ["--domain", "1.2,2,0.4"],
            "graph_grid": graph + ["--domain", "1.2,2,-0.4,0.4", "--grid", "5"],
            "spectrum_k_zero": spectrum + ["--k", "0"],
            "spectrum_k_negative": spectrum + ["--k", "-3"],
            "bounds_grid_zero": ["bounds", "--grid", "0"],
            "gauss_grid_two": gauss[:-1] + ["2"],
            "wulff_refine_negative": ["wulff", "--integrand", "const:1", "--refine", "-1",
                                      "--out", str(tmp_path / "w.obj")],
            "config_missing": ["bounds", "--config", str(tmp_path / "missing.json")],
            "domains_two": ["bounds", "--surface", "plane", "--grid", "16",
                            "--domains", "0,1,0.1,0.9;0,1,0,1"],
            "bc_file_names_itself": graph[:-1] + [str(cfg), "--domain", "0,1,0,1"],
            "bc_file_without_bc": graph[:-1] + [str(cfg), "--domain", "0,1,0,1"],
            "solution_missing_keys": ["bounds", "--surface", str(cfg)],
            "solution_bad_json": ["bounds", "--surface", str(cfg)],
        }.get(case, ["bounds", "--config", str(cfg)])  # the config_* cases
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: InvalidSpec: ")

    def test_integrand_error_is_reported(self, tmp_path):
        rc = main(
            ["wulff", "--integrand", "sh:2,0,9", "--out", str(tmp_path / "x.obj")]
        )
        assert rc == 2


class TestRunContext:
    def test_gauss_view_reports_branch_orders(self):
        # (1, z^2) chart: one flat point at the origin, Gauss map branched to order 1
        ctx = RunContext(ExperimentConfig(axes=[[1.0, 0.0, 0.0]]))
        ctx.patch = higher_order_enneper(2, grid=97)
        payload = gauss_payload(ctx)
        (point,) = payload["branch_points"]
        assert point["order"] == 1
        assert point["uv"] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert [v["order"] for v in payload["pseudograph"]["vertices"]] == [1]
        assert payload["pseudograph"]["lower_bound"] == 2

    @staticmethod
    def _count_calls(monkeypatch) -> Counter:
        """Count calls of the shared-artifact builders in every anisolab
        namespace that binds them."""
        counts = Counter()
        originals = {
            "assemble": spx.assemble,
            "dirichlet_eigs": spx.dirichlet_eigs,
            "curvature_field": sf.curvature_field,
            "anisotropy_constants": ig.anisotropy_constants,
        }
        for name, original in originals.items():
            def counted(*args, _name=name, _fn=original, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "anisolab" or mod_name.startswith("anisolab."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, attr, counted)
        return counts

    def test_each_artifact_computed_once(self, monkeypatch, tmp_path):
        counts = self._count_calls(monkeypatch)
        verify_bounds(ExperimentConfig(surface="catenoid:2", grid=48))
        # only the Jacobi spectra are solved; comparison counts come from inertia
        assert counts == {"assemble": 2, "dirichlet_eigs": 3, "curvature_field": 1,
                          "anisotropy_constants": 1}
        counts.clear()
        rc = main(
            ["spectrum", "--surface", "catenoid:2", "--integrand", "const:1",
             "--grid", "48", "--out", str(tmp_path / "s.json")]
        )
        assert rc == 0
        assert counts == {"assemble": 2, "dirichlet_eigs": 3, "curvature_field": 1,
                          "anisotropy_constants": 1}
