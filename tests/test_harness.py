import ast
import dataclasses
import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

from anisolab import cli, gauss_analysis as ga, harness, integrand as ig, spectrum as spx
from anisolab import graph_solver as gs, surface as sf
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
# an exhaustion whose index does not stabilize: Morse indices [0, 0, 1]
NOT_STABILIZED = dict(surface="catenoid:3", grid=48,
                      domains=[[0, TWO_PI, -v, v] for v in (0.5, 0.8, 2.0)])
INDEX_CHECKS = ("courant_nodal_domain_bound", "index_lower_bound_vs_spectrum",
                "low_genus_instability", "index_upper_bound_chain")
# theorems about critical surfaces (H_gamma = 0), skipped where the gate rejects
CRITICAL_SURFACE_CHECKS = (
    "sign_law_gauss_curvature", "curvature_pairing_sandwich", "quadratic_form_comparison",
    "courant_nodal_domain_bound", "translation_jacobi_fields", "branched_cover_euler_count",
    "pseudograph_euler_inequality", "index_lower_bound_vs_spectrum", "low_genus_instability",
    "index_upper_bound_chain")
# the note of the two comparison checks on an isotropic integrand
ISOTROPIC_SKIP = ("isotropic integrand: L = lambda_gamma L_gamma on a gamma-minimal surface, "
                  "so the comparison is an identity")


@pytest.fixture(scope="module")
def catenoid_context():
    return RunContext(ExperimentConfig(
        surface="catenoid:3",
        grid=96,
        domains=[[0, TWO_PI, -1, 1], [0, TWO_PI, -2, 2], [0, TWO_PI, -2.8, 2.8]],
    ))


@pytest.fixture(scope="module")
def catenoid_report(catenoid_context):
    return verify_bounds(catenoid_context)


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
    def test_catenoid_all_checks_pass(self, catenoid_context, catenoid_report):
        rep = catenoid_report
        assert rep["all_passed"]
        assert rep["spectral"]["stabilized_index"] == 1
        pg = rep["gauss"]["pseudographs"]["0,0,1"]
        assert pg["lower_bound"] == 1
        # const:1 is isotropic: the comparison checks are skipped and say why
        assert rep["comparison_counts"] is None
        for c in rep["checks"]:
            if c["name"] in ("quadratic_form_comparison", "index_upper_bound_chain"):
                assert (c["passed"], c["note"]) == (None, "skipped: " + ISOTROPIC_SKIP)
        # the comparison operator, counted anyway, dominates the index
        ctx = catenoid_context
        disc_cmp = spx.comparison_assembly(ctx.field, ctx.consts.lambda_gamma)
        counts = spx.comparison_operator_counts(disc_cmp, ctx.domains, ctx.spectral.morse_index)
        assert counts[-1]["neg_Lgamma"] >= 1

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

    def test_unstabilized_index_skips_every_index_check(self):
        # these checks passed, failed or went null without a reason when the
        # index they read did not stabilize
        rep = verify_bounds(ExperimentConfig(**NOT_STABILIZED))
        assert rep["spectral"]["morse_index"] == [0, 0, 1]
        assert rep["failed_checks"] == []
        for c in rep["checks"]:
            if c["name"] in INDEX_CHECKS:
                assert (c["passed"], c["lhs"], c["rhs"]) == (None, None, None), c["name"]
                expected = "skipped: index not stabilized"
                if c["name"] == "index_upper_bound_chain":
                    expected += "; " + ISOTROPIC_SKIP
                assert c["note"] == expected, c["name"]
            assert c["passed"] is None or c["lhs"] is not None, c["name"]

    def test_courant_bound_needs_a_nodal_set(self):
        # the plane has no nodal set on any axis, so there is nothing to
        # count, and the lower bound, read off the same axes, bounds nothing
        rep = verify_bounds(ExperimentConfig(surface="plane", grid=32))
        for name in ("courant_nodal_domain_bound", "pseudograph_euler_inequality",
                     "index_lower_bound_vs_spectrum"):
            (check,) = [c for c in rep["checks"] if c["name"] == name]
            assert (check["passed"], check["lhs"], check["rhs"]) == (None, None, None)
            assert check["note"] == "skipped: no axis has a nodal set"
            assert check["tolerance"] == 0

    def test_rejected_surface_skips_critical_surface_theorems(self, tmp_path):
        # the sphere is not critical: the gate's FAIL is the one finding, and
        # the theorems that assume H_gamma = 0 say why they were not judged
        out = tmp_path / "sphere.json"
        assert main(["bounds", "--surface", "sphere", "--grid", "24", "--out", str(out)]) == 1
        rep = json.loads(out.read_text())
        assert not rep["accepted"]
        assert rep["failed_checks"] == ["first_variation_minimality"]
        for c in rep["checks"]:
            if c["name"] in CRITICAL_SURFACE_CHECKS:
                assert c["passed"] is None, c["name"]
                assert c["note"].startswith("skipped: surface is not accepted"), c["name"]
            else:
                assert "not accepted" not in c["note"], c["name"]

    @pytest.mark.parametrize("case", ["plane", "not_stabilized", "near_corner_enneper",
                                      "graph_solution", "inertia_untrusted", "sphere"])
    def test_null_verdict_says_why(self, tmp_path, monkeypatch, case):
        # a check is neither passed nor failed exactly when its note says why
        ctx = RunContext(ExperimentConfig(surface="plane", grid=32))
        if case == "sphere":
            ctx = RunContext(ExperimentConfig(surface="sphere", grid=24))
        elif case == "not_stabilized":
            ctx = RunContext(ExperimentConfig(**NOT_STABILIZED))
        elif case == "near_corner_enneper":
            ctx = RunContext(ExperimentConfig())
            ctx.patch = near_corner_enneper()
        elif case == "graph_solution":
            sol = tmp_path / "sol.json"
            assert main(["solve-graph", "--integrand", "const:1", "--domain", "1.2,2,-0.4,0.4",
                         "--grid", "65", "--bc", "catenoid", "--out", str(sol)]) == 0
            ctx = RunContext(ExperimentConfig(surface=str(sol), grid=65))
        elif case == "inertia_untrusted":
            monkeypatch.setattr(harness, "inertia", lambda *args, **kwargs: None)
        rep = verify_bounds(ctx)
        for c in rep["checks"]:
            assert (c["passed"] is None) == c["note"].startswith("skipped: "), c["name"]
        if case == "inertia_untrusted":
            (check,) = [c for c in rep["checks"] if c["name"] == "inertia_count_agreement"]
            assert check["note"] == "skipped: a factorization was not trusted"
            assert check["lhs"] == [None] * 3

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
        # the skip names the causes, which are not planarity here
        assert check["note"] == f"skipped: surface is not complete; {ctx.critical[1]}"
        assert "no regular annulus" in check["note"]

    def test_flat_point_is_serialized(self):
        # the (1, z^2) chart branches to order 1 at the origin, a node of
        # the odd grid and the center of a 2 x 2-cell box; the radius is
        # twice the distance to the box's far corner
        ctx = RunContext(ExperimentConfig(grid=65))
        ctx.patch = higher_order_enneper(2, grid=65)
        rep = json.loads(harness.report_json(verify_bounds(ctx)))
        assert rep["gauss"]["critical_degenerate"] is False
        (point,) = rep["gauss"]["branch_points"]
        assert point["location"] == [0.0, 0.0]
        assert point["branch_order"] == 1
        assert point["detection_radius"] == pytest.approx(2 * np.sqrt(2) * ctx.patch.hu)

    @pytest.mark.parametrize("complete", [False, True])
    def test_completeness_gates_global_checks(self, complete):
        # the truncated (1, z^2) chart has raw Gauss degree 1.21, not the
        # complete surface's 2: the Euler count runs only when declared complete
        ctx = RunContext(ExperimentConfig(grid=65))
        ctx.patch = dataclasses.replace(higher_order_enneper(2, grid=65), complete=complete)
        (check,) = [c for c in verify_bounds(ctx)["checks"]
                    if c["name"] == "branched_cover_euler_count"]
        if complete:
            assert check["passed"] is False
        else:
            assert check["note"] == "skipped: surface is not complete"

    def test_selftest_flips_checks(self):
        result = selftest(grid=48)
        assert result["ok"]
        assert result["honest_all_passed"]
        assert len(result["corruption_flipped_checks"]) >= 1


class TestProvenance:
    """The report names the surface it judged, not only its configuration."""

    def test_two_solutions_at_one_path_differ(self, tmp_path):
        sol, out = tmp_path / "sol.json", tmp_path / "v.json"
        provenance = []
        for bc in ("catenoid", "linear:0.1,0,0"):
            assert main(["solve-graph", "--integrand", "const:1", "--domain", "1.2,2,-0.4,0.4",
                         "--grid", "17", "--bc", bc, "--out", str(sol)]) == 0
            main(["bounds", "--surface", str(sol), "--out", str(out)])
            provenance.append(json.loads(out.read_text())["provenance"])
        first, second = provenance
        assert first["config_sha256"] == second["config_sha256"]
        assert first["surface_name"] == second["surface_name"] == "graph_solution"
        assert first["surface_sha256"] != second["surface_sha256"]

    def test_grid_flag_does_not_change_a_solution(self, tmp_path):
        # a solution is judged on its own grid less its trimmed edge ring;
        # only the config echo repeats the requested grid
        sol = tmp_path / "sol.json"
        assert main(["solve-graph", "--integrand", "const:1", "--domain", "1.2,2,-0.4,0.4",
                     "--grid", "17", "--bc", "catenoid", "--out", str(sol)]) == 0
        judged = []
        for grid in ("24", "96"):
            out = tmp_path / f"v{grid}.json"
            main(["bounds", "--surface", str(sol), "--grid", grid, "--out", str(out)])
            report = json.loads(out.read_text())
            judged.append((report["provenance"]["surface_sha256"],
                           [c["name"] for c in report["checks"] if c["passed"] is False]))
        assert judged[0] == judged[1]

    def test_replaced_patch_changes_the_digest(self):
        # the (1, z^2) chart assigned to a context of the default configuration
        config = ExperimentConfig(grid=65)
        ctx = RunContext(config)
        ctx.patch = higher_order_enneper(2, grid=65)
        replaced = verify_bounds(ctx)["provenance"]
        plain = verify_bounds(config)["provenance"]
        assert replaced["config_sha256"] == plain["config_sha256"]
        assert (plain["surface_name"], replaced["surface_name"]) == ("catenoid", "enneper_order_2")
        assert replaced["surface_sha256"] != plain["surface_sha256"]

    def test_one_configuration_one_digest(self):
        config = ExperimentConfig(surface="catenoid:2", grid=32)
        first, second = (verify_bounds(config)["provenance"] for _ in range(2))
        assert first == second
        assert first["surface_sha256"] == harness.surface_digest(
            parse_surface("catenoid:2", 32), C1)


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

    def test_numpy_integers_stored_as_int(self):
        fields = dict(grid=16, genus=1, seed=3, eig_count=5)
        config = ExperimentConfig(surface="plane", **{k: np.int64(v) for k, v in fields.items()})
        assert config.to_json() == ExperimentConfig(surface="plane", **fields).to_json()
        assert RunContext(config).patch.shape == (16, 16)
        assert sf.fixture("plane", grid=np.int32(16)).shape == (16, 16)

    def test_parse_surface_grammar(self):
        assert parse_surface("plane", 16).name == "plane"
        assert parse_surface("plane:2,3", 16).domain == (0.0, 2.0, 0.0, 3.0)
        assert parse_surface("catenoid:1.5", 16).domain[3] == 1.5
        assert parse_surface("enneper:1.2", 16).domain == (-1.2, 1.2, -1.2, 1.2)
        p = parse_surface("sheared_catenoid:1,0,0,0,1,0,0,0,2;1.5", 16)
        assert p.name == "sheared_catenoid"
        with pytest.raises(ValueError):
            parse_surface("torus", 16)

    def test_solution_heights_counted_before_the_grid_is_built(self, tmp_path, monkeypatch):
        # a one-height file declaring 2001 x 2001 nodes built a boundary grid of
        # that size, growing with the declared grid and not the file, before
        # its refusal
        built = []
        original = gs.GraphProblem.boundary_grid
        monkeypatch.setattr(gs.GraphProblem, "boundary_grid",
                            lambda prob: built.append(prob.shape) or original(prob))
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"integrand": "const:1", "domain": [0, 1, 0, 1],
                                   "grid": [2001, 2001], "u": [0.0], "residual_linf": 0.0,
                                   "iterations": 0, "converged": True}))
        with pytest.raises(InvalidSpec):
            parse_surface(str(sol), 16)
        assert built == []


class TestCli:
    def test_wulff_writes_obj(self, tmp_path):
        out = tmp_path / "w.obj"
        assert main(["wulff", "--integrand", "const:1", "--refine", "2", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("v ")
        assert " f " not in text.splitlines()[0]

    @pytest.mark.parametrize("integrand, grid, failed", [
        pytest.param("const:1", 65, ["translation_jacobi_fields"], id="const:1-65"),
        pytest.param("ellipsoid:1,1,2", 65, ["translation_jacobi_fields"],
                     id="ellipsoid:1,1,2-65"),
        pytest.param("sh:2,0,0.05", 65, ["translation_jacobi_fields"], id="sh:2,0,0.05-65"),
        pytest.param("const:1", 129, [], id="const:1-129"),
    ])
    def test_solve_graph_then_spectrum_roundtrip(self, tmp_path, capsys, integrand, grid,
                                                 failed):
        # a graph patch is not complete, so the complete-surface theorems are
        # skipped; the translation residual is coarse at 65 for const:1 and
        # stays above tolerance in the corners for the anisotropic two
        sol = tmp_path / "sol.json"
        rc = main(
            [
                "solve-graph", "--integrand", integrand,
                "--domain", "1.2,2,-0.4,0.4", "--grid", str(grid),
                "--bc", "catenoid", "--out", str(sol),
            ]
        )
        assert rc == 0
        payload = json.loads(sol.read_text())
        assert payload["converged"]
        assert payload["status"] == "converged"
        assert payload["residual_history"][-1] == payload["residual_linf"]
        # grid 129 is solved after grid 65, each level on record
        grids = [m for m in (65, 129) if m <= grid]
        assert [lv["grid"] for lv in payload["levels"]] == [[m, m] for m in grids]
        assert payload["levels"][-1]["iterations"] == payload["iterations"]
        named = ",".join(f"{m}x{m}:converged:{lv['iterations']}"
                         for m, lv in zip(grids, payload["levels"]))
        assert f"levels={named}\n" in capsys.readouterr().err
        assert len(payload["u"]) == grid * grid
        spec_out = tmp_path / "spec.json"
        rc = main(
            ["spectrum", "--surface", str(sol), "--integrand", integrand,
             "--out", str(spec_out)]
        )
        assert rc == 0
        rep = json.loads(spec_out.read_text())
        assert rep["stabilized_index"] == 0  # small stable graph piece
        verdict = tmp_path / "verdict.json"
        rc = main(
            ["bounds", "--surface", str(sol), "--integrand", integrand,
             "--out", str(verdict)]
        )
        report = json.loads(verdict.read_text())
        assert report["accepted"]
        assert report["failed_checks"] == failed
        assert report["all_passed"] is (not failed)
        assert rc == (1 if failed else 0)
        for c in report["checks"]:
            if c["name"] in ("courant_nodal_domain_bound", "branched_cover_euler_count",
                             "index_lower_bound_vs_spectrum", "low_genus_instability"):
                assert c["note"] == "skipped: surface is not complete", c["name"]
        # both views read the same run; neither counts the comparison
        # operator of the isotropic integrand
        assert report["comparison_counts"] == rep.pop("comparison_counts")
        assert (report["comparison_counts"] is None) is integrand.startswith("const:")
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
        old = tmp_path / "old.json"  # written before status, history and levels existed
        old.write_text(json.dumps({k: v for k, v in payload.items()
                                   if k not in ("status", "residual_history", "levels")}))
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

    @pytest.mark.parametrize("target", ["missing_directory", "directory"])
    @pytest.mark.parametrize("command", ["curvature", "bounds", "wulff", "solve-graph"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command, target):
        # these ended in a traceback and exit 1, which reads as a failed check
        # for bounds and as no convergence for solve-graph
        out = tmp_path / "missing" / "x.json" if target == "missing_directory" else tmp_path
        argv = {
            "curvature": ["curvature", "--surface", "catenoid:2", "--integrand", "const:1",
                          "--grid", "16"],
            "bounds": ["bounds", "--surface", "plane", "--grid", "16"],
            "wulff": ["wulff", "--integrand", "const:1", "--refine", "0"],
            "solve-graph": ["solve-graph", "--integrand", "const:1", "--domain", "0,1,0,1",
                            "--grid", "9", "--bc", "zero"],
        }[command]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("domain", ["0,1e-100,0,1e-100", "0,1e150,0,1"])
    def test_extreme_spacings_that_square_in_range_solve(self, tmp_path, domain):
        sol = tmp_path / "sol.json"
        assert main(["solve-graph", "--integrand", "const:1", "--bc", "zero", "--grid", "9",
                     "--domain", domain, "--out", str(sol)]) == 0
        assert json.loads(sol.read_text())["converged"]

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
        "spectrum_domains_not_nested", "bounds_domain_repeated", "config_jacobi_residual_tol",
        "graph_spacing_underflow", "graph_spacing_overflow", "solution_spacing_overflow",
        "surface_arity", "config_list", "solution_converged_string", "solution_residual_nan",
        "solution_metadata_types", "solution_residual_huge_int",
        *(f"solution_{h}_{view}" for h in ("nan", "inf")
          for view in ("bounds", "spectrum", "gauss", "curvature")),
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
            "config_list": json.dumps([{"surface": "plane"}]),
            # the verdict's tolerances and Wulff level are constants, not config keys
            "config_tolerance_string": json.dumps({"surface": "plane", "minimal_accept": "x"}),
            "config_wulff_refinement_above_cap": json.dumps(
                {"surface": "plane", "wulff_refinement": MAX_REFINEMENT + 1}),
            "config_jacobi_residual_tol": json.dumps(
                {"surface": "plane", "jacobi_residual_tol": 1.0}),
            # the Euler characteristic is 2 - 2 genus, not a separate input
            "config_euler_char": json.dumps({"surface": "plane", "euler_char": 0}),
            "bc_file_names_itself": json.dumps({"bc": str(cfg)}),
            "bc_file_without_bc": json.dumps({"boundary": "zero"}),
            "solution_missing_keys": json.dumps({"integrand": "const:1"}),
            "solution_bad_json": "{",
            "solution_spacing_overflow": json.dumps(
                {"integrand": "const:1", "domain": [0, 1e160, 0, 1], "grid": [9, 9],
                 "u": [0.0] * 81, "residual_linf": 0.0, "iterations": 0, "converged": True}),
        }.get(case, json.dumps({"surface": "plane", "bogus": 1})))
        gauss = ["gauss", "--surface", "plane", "--integrand", "const:1", "--grid", "16"]
        graph = ["solve-graph", "--integrand", "const:1", "--bc", "catenoid"]
        spectrum = ["spectrum", "--surface", "catenoid:2", "--integrand", "const:1"]
        argv = {
            "integrand": ["wulff", "--integrand", "foo:1", "--out", str(tmp_path / "w.obj")],
            "surface": ["bounds", "--surface", "torus"],
            "surface_arity": ["bounds", "--surface", "catenoid:1,2"],
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
            "solution_spacing_overflow": ["bounds", "--surface", str(cfg)],
            # these raised OverflowError: h^2 underflows to 0, or overflows
            "graph_spacing_underflow": graph[:-1] + ["zero", "--domain", "0,1e-300,0,1",
                                                     "--grid", "9"],
            "graph_spacing_overflow": graph[:-1] + ["zero", "--domain", "0,1e160,0,1",
                                                    "--grid", "9"],
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
        metadata = {  # each was judged like the solution it was edited from
            "solution_converged_string": {"converged": "no", "iterations": -5},
            "solution_residual_nan": {"residual_linf": np.nan},
            "solution_metadata_types": {"residual_linf": "x", "iterations": 2.5},
            "solution_residual_huge_int": {"residual_linf": 10**400},  # no float holds it
        }
        if case in metadata:
            cfg.write_text(json.dumps(
                {"integrand": "const:1", "domain": [0, 1, 0, 1], "grid": [9, 9], "u": [0.0] * 81,
                 "residual_linf": 0.0, "iterations": 0, "converged": True, **metadata[case]}))
            argv = ["bounds", "--surface", str(cfg)]
        if case.startswith(("solution_nan", "solution_inf")):
            # json reads NaN and Infinity; a corner height of either ended in a
            # traceback in degrees, or warned and then blamed the P1 assembly
            height = np.nan if case.startswith("solution_nan") else np.inf
            cfg.write_text(json.dumps(
                {"integrand": "const:1", "domain": [0, 1, 0, 1], "grid": [9, 9],
                 "u": [height] + [0.0] * 80, "residual_linf": 0.0, "iterations": 0,
                 "converged": True}))
            view = case.rsplit("_", 1)[1]
            argv = [view, "--surface", str(cfg)] + ([] if view == "bounds" else [
                "--integrand", "const:1", "--out", str(tmp_path / "out.json")])
        assert main(argv) == 2
        err = capsys.readouterr().err
        # |X_u x X_v| overflows on every node of a finite chart
        kind = ("DegenerateImmersion" if case in ("shear_overflow", "shear_det_overflow")
                else "InvalidSpec")
        assert err.startswith(f"error: {kind}: ")
        assert err.count("\n") == 1
        if case in ("config_tolerance_string", "config_wulff_refinement_above_cap",
                    "config_jacobi_residual_tol", "config_euler_char"):
            assert "unknown config keys" in err
        if case.startswith(("solution_nan", "solution_inf")) or case in metadata:
            assert str(cfg) in err

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

    def test_spectrum_windows_beyond_arpack(self, tmp_path):
        # the first domain has 4 free nodes: its window is solved densely
        out = tmp_path / "s.json"
        assert main(["spectrum", "--surface", "plane", "--integrand", "const:1", "--grid", "8",
                     "--domains", "0.3,0.7,0.3,0.7;0.2,0.8,0.2,0.8;0.1,0.9,0.1,0.9",
                     "--out", str(out)]) == 0
        assert [len(v) for v in json.loads(out.read_text())["eigenvalues"]] == [4, 12, 12]

    @pytest.mark.parametrize("failure", ["eigsh_raises", "counts_not_monotone"])
    def test_spectral_refusal_exits_2(self, monkeypatch, capsys, failure):
        # enneper at grid 24 takes the sparse path: a solver exception is
        # wrapped, and counts 2, 1, 1 over the nested domains are refused
        if failure == "eigsh_raises":
            def eigsh(*args, **kwargs):
                raise RuntimeError("solver broke")

            monkeypatch.setattr(spx.spla, "eigsh", eigsh)
        else:
            counts = iter([2, 1, 1])

            def dirichlet_eigs(disc, k, domain=None):
                c = next(counts)
                return np.repeat([-1.0, 1.0], [c, k - c]), None, None

            monkeypatch.setattr(spx, "dirichlet_eigs", dirichlet_eigs)
        assert main(["bounds", "--surface", "enneper:1.3", "--grid", "24"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SolverFailure: ")
        assert err.count("\n") == 1
        assert ("eigensolve failed" if failure == "eigsh_raises" else "not monotone") in err

    @pytest.mark.parametrize("argv", [
        ["wulff", "--integrand", "const:1e-9"],  # smallest eigenvalue 1e-9
        ["wulff", "--integrand", "ellipsoid:1e-6,1e-6,2e-6"],  # smallest eigenvalue 5e-7
        ["wulff", "--integrand", "ellipsoid:0,1,1"],  # a zero semi-axis
        ["bounds", "--integrand", "const:1e-9"],
    ], ids=lambda argv: f"{argv[0]}-{argv[2]}")
    def test_non_convex_integrand_exits_2(self, tmp_path, capsys, argv):
        # below the sampled convexity margin, or with a semi-axis that is not positive
        out = tmp_path / "w.obj"
        if argv[0] == "wulff":
            argv = argv + ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: NonConvexIntegrand: ")
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

    @pytest.mark.parametrize("view,argv", [
        pytest.param(view, argv, id=argv[-1] if view == "bounds" else f"{view}-{argv[-1]}")
        for view in ("bounds", "gauss", "curvature")
        for argv in (["--grid", "8", "--surface", "plane:1e-300,1e-300"],
                     ["--surface", "catenoid:1e-320"],
                     ["--surface", "enneper:1e-170"],
                     ["--grid", "8", "--surface", "plane:1e308,1e308"])
    ] + [pytest.param("bounds", ["--grid", "8", "--surface", "plane:1e308,1"],
                      id="plane:1e308,1")])
    def test_extreme_chart_extent_exits_2_without_warning(self, tmp_path, capsys, view, argv):
        # the quadrature weights, or on plane:1e308,1 only the P1 sums, leave
        # the floating-point range: these warned, then blamed the free nodes
        # or the eigensolve, exited 0, or ended in a traceback
        out = tmp_path / "c.obj"
        if view != "bounds":
            argv = argv + ["--integrand", "const:1"]
        if view == "curvature":
            argv = argv + ["--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([view, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: AnisolabError: ")
        assert "hu = " in err and "hv = " in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_large_chart_extent_still_judged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["bounds", "--grid", "8", "--surface", "plane:1e200,1"]) == 0

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

    def test_tracer_bindings_resolve(self):
        # the names perfbench/tracer.py wraps, read from its source so that
        # nothing of perfbench is imported here
        tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        consts = {target.id: ast.literal_eval(node.value)
                  for node in ast.parse(tracer.read_text()).body if isinstance(node, ast.Assign)
                  for target in node.targets if getattr(target, "id", None) in (
                      "LAYER_FUNCTIONS", "ARPACK_MODULE")}
        for module, function in consts["LAYER_FUNCTIONS"]:
            assert callable(getattr(importlib.import_module(f"anisolab.{module}"), function))
        assert gs.spla is scipy.sparse.linalg  # replaced by a namespace that times splu
        assert hasattr(importlib.import_module(consts["ARPACK_MODULE"]), "splu")

    def test_import_leaves_slow_scipy_modules_unloaded(self):
        # every benchmark run pays the import in setup_s: scipy.interpolate
        # costs about 0.27 s, scipy.fft 60-100 ms, scipy.ndimage 40-130 ms
        code = ("import sys, anisolab; print([m for m in "
                "('scipy.interpolate', 'scipy.fft', 'scipy.ndimage') if m in sys.modules])")
        src = str(Path(ig.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

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
        inspect.signature(gs.GraphProblem).bind(
            domain="domain", shape="shape", boundary="boundary", spec="spec")
        inspect.signature(gs.solve).bind("problem")
        inspect.signature(gs.lift).bind("solution")

    @pytest.mark.parametrize("k, lower", [(2, [2, 2, 1]), (3, [3, 3, 1])])
    def test_branched_gauss_contract(self, k, lower):
        # the checks of the benchmark's branched/gauss-k{k}@257 on the same chart
        patch = higher_order_enneper(k, grid=257)
        fld = sf.curvature_field(patch, C1)
        (point,) = ga.critical_set(fld)
        assert np.max(np.abs(point.location)) <= 0.5 * 2.0 / 256
        assert ga.branch_order(patch, point) == point.branch_order == k - 1
        pgs = [ga.pseudograph_extract(patch, C1, axis, fld=fld, critical_points=[point])
               for axis in np.eye(3)]
        assert [ga.index_lower_bound(pg) for pg in pgs] == lower
        assert all(ga.euler_inequality_check(pg)["slack"] >= 0 for pg in pgs)


class TestPinnedBytes:
    """Output bytes that refactors of the spectral counts must keep."""

    def test_spectrum_view_bytes(self, tmp_path):
        # prints the exhaustion, and null comparison counts for const:1
        out = tmp_path / "s.json"
        assert main(["spectrum", "--surface", "catenoid:2", "--integrand", "const:1",
                     "--grid", "64", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "8f3e63880eb7c6e7547eb0b178adda485311d12020f9e87ebe293b477f706049")

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

    def test_lattice_extremes_evaluated_once(self, monkeypatch):
        # validation and the verdict's constants read one cached record of
        # the validation lattice
        ig._lattice_extremes.cache_clear()
        sizes = []
        original = ig.tangential_curvature_tensor

        def counted(spec, normals):
            sizes.append(len(normals))
            return original(spec, normals)

        monkeypatch.setattr(ig, "tangential_curvature_tensor", counted)
        ctx = RunContext(ExperimentConfig(surface="catenoid:2", integrand="ellipsoid:1,1,2",
                                          grid=16))
        # widening by the field's tensor can only lower lambda
        assert ctx.consts.lambda_gamma <= ig.anisotropy_constants(ctx.spec).lambda_gamma
        assert sizes.count(ig.VALIDATION_SAMPLES) == 1

    @pytest.mark.parametrize("config", [
        dict(surface="catenoid:3"), dict(surface="enneper:1.3"),
        dict(surface="sheared_catenoid:1,0,0,0,1,0,0,0,2;2", integrand="ellipsoid:1,1,2"),
    ], ids=["catenoid", "enneper", "sheared"])
    def test_consts_equal_reevaluated_normals(self, config):
        # widening by the field's tensor gives, bit for bit, what evaluating
        # the Hessian again at the field's normals, in the lattice's frame, gave
        ctx = RunContext(ExperimentConfig(grid=96, **config))
        normals = ctx.field.normal.reshape(-1, 3)
        A, _, _ = ig.tangential_curvature_tensor(
            ctx.spec, normals / np.linalg.norm(normals, axis=-1, keepdims=True))
        lower, upper = ig.sym2x2_eigenvalues(*A)
        _, lam, Lam = ig._lattice_extremes(ctx.spec)
        assert (ctx.consts.lambda_gamma, ctx.consts.Lambda_gamma) == (
            min(float(np.min(lower)), lam), max(float(np.max(upper)), Lam))

    def test_one_hessian_evaluation_per_point_set(self, monkeypatch):
        # the nodes (curvature field) and the element barycenters (assembly);
        # the constants read the field's tensor instead of a third evaluation
        config = ExperimentConfig(surface="sheared_catenoid:1,0,0,0,1,0,0,0,2;2",
                                  integrand="ellipsoid:1,1,2", grid=24)
        ig.parse_integrand(config.integrand)  # the lattice record is cached per spec
        points = []
        original = ig.hessian_entries

        def counted(spec, x, entries):
            points.append(x.shape[:-1])
            return original(spec, x, entries)

        monkeypatch.setattr(ig, "hessian_entries", counted)
        verify_bounds(config)
        assert len(points) == 2

    def test_each_artifact_computed_once(self, monkeypatch, tmp_path):
        counts = self._count_calls(monkeypatch)
        verify_bounds(ExperimentConfig(surface="catenoid:2", grid=48))
        # only the Jacobi operator is assembled and solved: const:1 is isotropic
        assert counts == {"assemble": 1, "dirichlet_eigs": 3, "curvature_field": 1,
                          "anisotropy_constants": 1}
        counts.clear()
        rc = main(
            ["spectrum", "--surface", "catenoid:2", "--integrand", "const:1",
             "--grid", "48", "--out", str(tmp_path / "s.json")]
        )
        assert rc == 0
        # the view reads no anisotropy constant without a comparison operator
        assert counts == {"assemble": 1, "dirichlet_eigs": 3, "curvature_field": 1}
