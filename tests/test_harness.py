import dataclasses
import hashlib
import inspect
import json
import sys
from collections import Counter

import numpy as np
import pytest

from anisolab import cli, gauss_analysis as ga, harness, integrand as ig, spectrum as spx
from anisolab import surface as sf
from anisolab.cli import gauss_payload, main
from anisolab.errors import InvalidSpec
from anisolab.integrand import MAX_REFINEMENT
from anisolab.harness import (
    REQUIRED_CHECKS,
    ExperimentConfig,
    RunContext,
    accept_candidate,
    parse_surface,
    selftest,
    verify_bounds,
)
from conftest import higher_order_enneper, near_corner_enneper

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

    def test_inertia_count_agreement_can_fail(self):
        # a potential negated after the eigensolve reaches the inertia count
        # and not the eigenvalue count the report already holds
        ctx = RunContext(ExperimentConfig(surface="catenoid:2", grid=48))
        ctx.spectral
        ctx.disc = dataclasses.replace(ctx.disc, potential=-ctx.disc.potential)
        rep = verify_bounds(ctx)
        assert rep["failed_checks"] == ["inertia_count_agreement"]
        (check,) = [c for c in rep["checks"] if c["name"] == "inertia_count_agreement"]
        assert check["rhs"] == rep["spectral"]["morse_index"] == [1, 1, 1]
        assert check["lhs"] == [0, 0, 0]

    def test_flat_point_without_annulus_still_reports(self):
        # a flat point too near the edge for branch_order is a degenerate
        # critical set, not an exception out of the verdict
        ctx = RunContext(ExperimentConfig())
        ctx.patch = near_corner_enneper()
        rep = verify_bounds(ctx)
        assert [c["name"] for c in rep["checks"]] == list(REQUIRED_CHECKS)
        assert rep["gauss"]["critical_degenerate"] is True
        assert rep["gauss"]["branch_points"] == []
        (check,) = [c for c in rep["checks"] if c["name"] == "branched_cover_euler_count"]
        assert check["passed"] is None
        assert check["note"] == "skipped: flat critical structure (planar diagnostic)"
        assert "no regular annulus" in str(ctx.critical[1])

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

    def test_bounds_genus_sets_euler_characteristic(self, tmp_path):
        # Riemann-Hurwitz on the compactified surface uses chi = 2 - 2 genus;
        # read as a sphere, the genus-1 run passed every check
        out = tmp_path / "v.json"
        assert main(["bounds", "--grid", "48", "--genus", "1", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["failed_checks"] == ["branched_cover_euler_count"]
        (check,) = [c for c in report["checks"] if c["name"] == "branched_cover_euler_count"]
        assert check["lhs"] == -2.0

    @pytest.mark.parametrize("command", ["bounds", "spectrum", "gauss", "curvature"])
    def test_flag_defaults_are_config_defaults(self, monkeypatch, command):
        seen = []

        def capture(config):
            seen.append(config)
            raise InvalidSpec("captured")

        monkeypatch.setattr(cli, "verify_bounds", capture)
        monkeypatch.setattr(cli, "RunContext", capture)
        defaults = ExperimentConfig()
        required = {"bounds": []}.get(command, [
            "--surface", defaults.surface, "--integrand", defaults.integrand, "--out", "x"])
        assert main([command, *required]) == 2
        axes = {"gauss": [[0.0, 0.0, 1.0]]}.get(command, defaults.axes)  # gauss takes one axis
        assert seen == [dataclasses.replace(defaults, axes=axes)]

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
        "config_tolerance_string", "wulff_refine_above_cap", "config_wulff_refinement_above_cap",
        "graph_domain_flat", "graph_domain_nan", "graph_domain_reversed", "graph_bc_nan",
        "graph_tol_nan", "graph_max_iter_negative", "plane_zero_width", "graph_bc_overflow",
        "shear_nan", "shear_inf", "shear_overflow", "shear_det_overflow", "config_euler_char",
        "spectrum_domains_not_nested", "bounds_domain_repeated",
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
            "config_wulff_refinement_above_cap": json.dumps(
                {"surface": "plane", "wulff_refinement": MAX_REFINEMENT + 1}),
            # the Euler characteristic is 2 - 2 genus, not a separate input
            "config_euler_char": json.dumps({"surface": "plane", "euler_char": 0}),
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
            "wulff_refine_above_cap": ["wulff", "--integrand", "const:1", "--refine",
                                       str(MAX_REFINEMENT + 1), "--out", str(tmp_path / "w.obj")],
            "graph_domain_flat": graph + ["--domain", "1,1,0,1"],
            "graph_domain_nan": graph + ["--domain", "nan,1,0,1"],
            "graph_domain_reversed": graph + ["--domain", "2,1.2,-0.4,0.4"],
            "graph_bc_nan": graph[:-1] + ["sine:nan", "--domain", "0,1,0,1"],
            "graph_bc_overflow": graph[:-1] + ["linear:1e308,1e308,0", "--domain", "0,1,0,1",
                                               "--grid", "9"],
            "graph_tol_nan": graph + ["--domain", "1.2,2,-0.4,0.4", "--tol", "nan"],
            "graph_max_iter_negative": graph + ["--domain", "1.2,2,-0.4,0.4", "--max-iter", "-3"],
            "plane_zero_width": ["bounds", "--surface", "plane:0,1"],
            "config_missing": ["bounds", "--config", str(tmp_path / "missing.json")],
            "domains_two": ["bounds", "--surface", "plane", "--grid", "16",
                            "--domains", "0,1,0.1,0.9;0,1,0,1"],
            "bc_file_names_itself": graph[:-1] + [str(cfg), "--domain", "0,1,0,1"],
            "bc_file_without_bc": graph[:-1] + [str(cfg), "--domain", "0,1,0,1"],
            "solution_missing_keys": ["bounds", "--surface", str(cfg)],
            "solution_bad_json": ["bounds", "--surface", str(cfg)],
            # these failed with a traceback, printed sup|H_gamma| = nan with
            # exit 0, blamed the integrand for the NaN shear, or warned
            "shear_nan": ["bounds", "--surface", "sheared_catenoid:nan,0,0,0,1,0,0,0,1;2",
                          "--grid", "24"],
            "shear_inf": ["curvature", "--surface", "sheared_catenoid:1,0,0,0,1,0,0,0,inf;2",
                          "--integrand", "const:1", "--grid", "24",
                          "--out", str(tmp_path / "c.json")],
            "shear_overflow": gauss[:2] + ["sheared_catenoid:1,0,0,0,1,0,0,0,1e300;2"]
            + gauss[3:-1] + ["24"],
            "shear_det_overflow": gauss[:2] + ["sheared_catenoid:1e200,0,0,0,1e200,0,0,0,1e200"]
            + gauss[3:],
            # these exited 0, counting a shrinking domain or one domain twice
            "spectrum_domains_not_nested": spectrum + [
                "--grid", "48", "--domains", "0,6.2832,-1,1;0,6.2832,-0.5,0.5;0,6.2832,-2,2"],
            "bounds_domain_repeated": ["bounds", "--grid", "48", "--domains",
                                       "0,6.2832,-1,1;0,6.2832,-2,2;0,6.2832,-2,2"],
        }.get(case, ["bounds", "--config", str(cfg)])  # the config_* cases
        assert main(argv) == 2
        err = capsys.readouterr().err
        # |X_u x X_v| overflows on every node of a finite chart
        kind = ("DegenerateImmersion" if case in ("shear_overflow", "shear_det_overflow")
                else "InvalidSpec")
        assert err.startswith(f"error: {kind}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["wulff", "--integrand", "const:inf"],
        ["wulff", "--integrand", "ellipsoid:nan,1,1"],
        ["wulff", "--integrand", "ellipsoid:inf,1,1"],
        ["wulff", "--integrand", "ellipsoid:1e200,1,1"],
        ["wulff", "--integrand", "sh:2,0,nan"],
        ["bounds", "--integrand", "ellipsoid:nan,1,1"],
    ], ids=lambda argv: f"{argv[0]}-{argv[2]}")
    def test_non_finite_integrand_exits_2(self, tmp_path, capsys, argv):
        # these printed "area nan" with exit 0, or failed in the eigensolve
        out = tmp_path / "w.obj"
        if argv[0] == "wulff":
            argv = argv + ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidSpec: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("slope", ["1e200", "1e300"])
    def test_huge_slope_exits_2_without_warning(self, capsys, slope):
        # finite heights whose slopes overflow the coefficients: refused,
        # with the error line as the only output on stderr
        argv = ["solve-graph", "--integrand", "const:1", "--domain", "0,1,0,1",
                "--grid", "9", "--bc", f"linear:{slope},0,0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: EllipticityLoss: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("axis,plain", [("1e-320,0,0", "1,0,0"),
                                            ("1e308,1e308,0", "1,1,0")])
    def test_gauss_axis_scale_does_not_matter(self, tmp_path, capsys, axis, plain):
        # an axis whose squared norm under- or overflows names the same
        # direction: the same bytes, and nothing on stderr
        outs = []
        for ax in (axis, plain):
            out = tmp_path / f"{len(outs)}.json"
            assert main(["gauss", "--surface", "catenoid:2", "--integrand", "const:1",
                         "--grid", "24", "--axis", ax, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert capsys.readouterr().err == ""

    def test_integrand_error_is_reported(self, tmp_path):
        rc = main(
            ["wulff", "--integrand", "sh:2,0,9", "--out", str(tmp_path / "x.obj")]
        )
        assert rc == 2


class TestBenchmarkEntryPoints:
    """The benchmark in perfbench/ binds these names; its smoke suite runs
    outside tier 1, so they are pinned here."""

    @pytest.mark.parametrize("fn,names", [
        (spx.assemble, ("patch", "spec", "field", "potential_weight", "isotropic_diffusion")),
        (spx.dirichlet_eigs, ("disc", "k", "domain", "auto_extend")),
    ])
    def test_traced_argument_names(self, fn, names):
        assert set(names) <= set(inspect.signature(fn).parameters)

    def test_dirichlet_eigs_returns_free_nodes_third(self):
        # the tracer reads len(dirichlet_eigs(...)[2]) as the free-node count
        disc = spx.assemble(sf.fixture("catenoid", grid=24), C1)
        dom = (0.0, TWO_PI, -1.0, 1.0)
        out = spx.dirichlet_eigs(disc, 4, domain=dom)
        assert isinstance(out, tuple) and len(out) == 3
        np.testing.assert_array_equal(out[2], spx.interior_indices(disc, dom))

    def test_workload_calls_bind(self):
        # bind raises TypeError when a workload's call no longer fits
        inspect.signature(ga.pseudograph_extract).bind(
            "patch", "spec", "axis", fld="fld", critical_points=[])
        inspect.signature(spx.morse_index_exhaustion).bind("patch", "spec", "domains")
        inspect.signature(accept_candidate).bind("patch", "spec")
        inspect.signature(verify_bounds).bind("config")
        inspect.signature(harness.report_json).bind("report")
        inspect.signature(ga.critical_set).bind("fld")
        inspect.signature(ga.branch_order).bind("patch", "point")
        inspect.signature(ga.euler_inequality_check).bind("pg")
        inspect.signature(ga.index_lower_bound).bind("pg")
        inspect.signature(ga.degrees).bind("fld", "wulff")


class TestPinnedBytes:
    """Output bytes that refactors of the spectral counts must keep."""

    def test_spectrum_view_bytes(self, tmp_path):
        # prints the guarded comparison counts next to the exhaustion
        out = tmp_path / "s.json"
        assert main(["spectrum", "--surface", "catenoid:2", "--integrand", "const:1",
                     "--grid", "64", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "7772055826afa1b8191c35d9344143239c37a6e47cbfb9d9b995b6d6854cde66")

    def test_selftest_bytes(self):
        assert hashlib.sha256(json.dumps(selftest(64)).encode()).hexdigest() == (
            "a1dbdc5e74e0773ff20c4ca1e21bc18256b77306676e82357d98223055f620da")


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
