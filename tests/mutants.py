"""A catalogue of single-edit source mutants and the tests that kill them.

Each entry names a mutant, the file it edits (relative to the repository
root), the exact text it replaces, which occurs there once, the text that
replaces it, and the tests (pytest node ids relative to the repository
root) that fail once it is applied.  ``test_mutants.py`` checks, without
applying anything, that every old text still occurs exactly once and that
every killing test still exists, so a refactor that moves a catalogued line
or deletes a killing test has to update its entry.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    killed_by: tuple[str, ...]


MUTANTS = (
    # E_basic without its field term |grad phi|^2
    Mutant("e_basic_without_field_term", "src/nsplab/energy.py",
           "    dens = ws.rho_s * u**2 + ws.hp_s * q**2 + d1[6]**2\n",
           "    dens = ws.rho_s * u**2 + ws.hp_s * q**2\n",
           ("tests/test_acceptance.py::"
            "test_criterion_08_zero_order_energy_identity",
            "tests/test_config_cli.py::"
            "test_cli_simulate_two_samples_fall_back_to_c_visc",
            "tests/test_energy.py::"
            "test_remainder_constant_scales_with_amplitude",
            "tests/test_energy.py::"
            "test_verdict_reads_the_samples_of_its_stride",
            "tests/test_evolve.py::"
            "test_inviscid_linear_run_conserves_zero_order_energy",
            "tests/test_evolve.py::"
            "test_linear_run_basic_energy_is_nonincreasing")),
    # an angular channel of the stacked sample row, 2 ||(u/r)'||^2 in
    # ||u||_H3, with its multiplicity 2 made 1
    Mutant("u_h3_angular_channel_single", "src/nsplab/energy.py",
           "    u_terms = (u0, u1 + 2.0 * v0, u2 + 2.0 * v1, u3 + 2.0 * v2)\n",
           "    u_terms = (u0, u1 + 2.0 * v0, u2 + 1.0 * v1, u3 + 2.0 * v2)\n",
           ("tests/test_energy.py::test_components_sum_to_total",)),
    # E without ||q||_H2
    Mutant("e_without_q_h2", "src/nsplab/energy.py",
           "    e = (u_h3 + q_h2 + math.sqrt(qt_h1**2 + ut_h1**2)\n",
           "    e = (u_h3 + math.sqrt(qt_h1**2 + ut_h1**2)\n",
           ("tests/test_config_cli.py::"
            "test_cli_initial_data_honours_the_run_vacuum_floor",
            "tests/test_energy.py::test_components_sum_to_total",
            "tests/test_energy.py::"
            "test_verdict_reads_the_samples_of_its_stride",
            "tests/test_evolve.py::"
            "test_initial_data_honours_the_run_vacuum_floor")),
    # the verdict's quadratic ratio without c_fit * int D^2
    Mutant("verdict_without_dissipation_integral", "src/nsplab/energy.py",
           "        return float(np.max((e**2 + c_fit * integral) / e0**2))\n",
           "        return float(np.max(e**2 / e0**2))\n",
           ("tests/test_config_cli.py::"
            "test_cli_simulate_two_samples_fall_back_to_c_visc",
            "tests/test_energy.py::"
            "test_verdict_reads_the_samples_of_its_stride")),
    # q_tt = -div(q_t u + rho u_t) without its nonlinear q_t u part
    Mutant("qtt_without_qt_u", "src/nsplab/evolve.py",
           "        g = ws.r2 * (q_t * u + rho * u_t)\n",
           "        g = ws.r2 * (rho * u_t)\n",
           ("tests/test_energy.py::"
            "test_qtt_is_the_flow_derivative_of_q_t_nonlinear",)),
    # the Poisson-regularity density ||phi''||^2 + 2 ||phi'/r||^2 with its
    # angular term halved
    Mutant("poisson_density_angular_term_halved", "src/nsplab/grids.py",
           "    dens = d2**2 + 2.0 * (d1 / grid.r) ** 2\n",
           "    dens = d2**2 + 1.0 * (d1 / grid.r) ** 2\n",
           ("tests/test_elliptic.py::test_hessian_norm_examples",
            "tests/test_elliptic.py::"
            "test_poisson_regularity_constant_is_one",
            "tests/test_ineqlab.py::test_poisson_regularity_ensemble",
            "tests/test_ineqlab.py::test_seeded_reports_are_pinned",
            "tests/test_ineqlab.py::"
            "test_radial_passes_equal_the_member_loops")),
    # the polar and azimuthal orders of the seeded mode sums swapped
    Mutant("mode_sum_orders_swapped", "src/nsplab/ineqlab.py",
           "    l_phi, l_theta, k_r = np.moveaxis(orders, -1, 0)[..., None]\n",
           "    l_theta, l_phi, k_r = np.moveaxis(orders, -1, 0)[..., None]\n",
           ("tests/test_ineqlab.py::"
            "test_factor_path_matches_the_grid_operators",
            "tests/test_ineqlab.py::"
            "test_div_curl_boundary_identity_converges_at_second_order",
            "tests/test_ineqlab.py::"
            "test_l6_numerator_product_matches_the_grid_field",
            "tests/test_ineqlab.py::test_seeded_reports_are_pinned",
            "tests/test_ineqlab.py::"
            "test_mode_sum_factors_equal_the_mode_by_mode_build")),
    # the pressure force -d_r(h(rho) - h(rho_tilde)) scaled by 1.05
    Mutant("pressure_force_scaled", "src/nsplab/evolve.py",
           "        u_t -= dh_r\n",
           "        u_t -= 1.05 * dh_r\n",
           ("tests/test_acceptance.py::"
            "test_criterion_08_zero_order_energy_identity",
            "tests/test_energy.py::"
            "test_remainder_constant_scales_with_amplitude",
            "tests/test_energy.py::"
            "test_verdict_reads_the_samples_of_its_stride",
            "tests/test_evolve.py::"
            "test_initial_data_honours_the_run_vacuum_floor",
            "tests/test_evolve.py::"
            "test_inviscid_linear_run_conserves_zero_order_energy",
            "tests/test_evolve.py::"
            "test_manufactured_solution_converges_at_second_order",
            "tests/test_evolve.py::"
            "test_manufactured_solution_sees_a_wrong_term")),
    # the field force d_r(phi) scaled by 1.05
    Mutant("field_force_scaled", "src/nsplab/evolve.py",
           "        u_t += phi_r\n",
           "        u_t += 1.05 * phi_r\n",
           ("tests/test_acceptance.py::"
            "test_criterion_08_zero_order_energy_identity",
            "tests/test_energy.py::"
            "test_measured_viscous_constant_matches_coefficient",
            "tests/test_energy.py::"
            "test_remainder_constant_scales_with_amplitude",
            "tests/test_energy.py::"
            "test_verdict_reads_the_samples_of_its_stride",
            "tests/test_evolve.py::"
            "test_inviscid_linear_run_conserves_zero_order_energy",
            "tests/test_evolve.py::"
            "test_manufactured_solution_converges_at_second_order",
            "tests/test_evolve.py::"
            "test_manufactured_solution_sees_a_wrong_term")),
    # the run's viscosity 2 mu + lambda scaled by 1.02
    Mutant("run_viscosity_scaled", "src/nsplab/evolve.py",
           "        self.c_visc = params.longitudinal_viscosity\n",
           "        self.c_visc = 1.02 * params.longitudinal_viscosity\n",
           ("tests/test_energy.py::"
            "test_verdict_reads_the_samples_of_its_stride",
            "tests/test_evolve.py::"
            "test_manufactured_solution_converges_at_second_order")),
    # the sponge relaxes q to 0 instead of to its layer mean
    Mutant("sponge_not_mass_neutral", "src/nsplab/evolve.py",
           "        return self.sponge_coef * (q - mean), "
           "self.sponge_coef * u\n",
           "        return self.sponge_coef * q, self.sponge_coef * u\n",
           ("tests/test_acceptance.py::test_criterion_07_mass_conservation",
            "tests/test_evolve.py::"
            "test_hoisted_run_constants_keep_the_inline_arithmetic",
            "tests/test_evolve.py::test_run_mass_conservation_with_sponge")),
    # the momentum advection u u' dropped
    Mutant("advection_dropped", "src/nsplab/evolve.py",
           "            u_t -= u * u_r\n",
           "            u_t -= 0.0 * u * u_r\n",
           ("tests/test_energy.py::"
            "test_remainder_constant_scales_with_amplitude",
            "tests/test_evolve.py::"
            "test_manufactured_solution_converges_at_second_order")),
    # the q update of the Heun step made forward Euler
    Mutant("q_update_forward_euler", "src/nsplab/evolve.py",
           "        q2 = q0 + 0.5 * dt * (eq0 + eq1)\n",
           "        q2 = q0 + dt * eq0\n",
           ("tests/test_acceptance.py::"
            "test_criterion_08_zero_order_energy_identity",
            "tests/test_energy.py::test_qtt_consistent_with_time_differences",
            "tests/test_evolve.py::"
            "test_inviscid_linear_run_conserves_zero_order_energy",
            "tests/test_evolve.py::"
            "test_manufactured_solution_converges_at_second_order",
            "tests/test_evolve.py::"
            "test_non_finite_tendency_at_a_state_aborts_with_the_partial_"
            "series",
            "tests/test_evolve.py::"
            "test_run_abort_at_a_state_equals_the_public_step_loop",
            "tests/test_evolve.py::test_step_global_second_order")),
    # every boundary pairing tripled
    Mutant("pairings_tripled", "src/nsplab/ineqlab.py",
           "    lhs = np.abs(_pairings(grid, ens.inner, "
           "[_at_inner(c) for c in comps]))\n",
           "    lhs = 3.0 * np.abs(_pairings(grid, ens.inner, "
           "[_at_inner(c) for c in comps]))\n",
           ("tests/test_ineqlab.py::test_seeded_reports_are_pinned",
            "tests/test_ineqlab.py::"
            "test_streamed_reports_equal_per_field_loop")),
    # the inner-sphere trace integral multiplied by R^0.2
    Mutant("trace_integral_times_r_power", "src/nsplab/ineqlab.py",
           "        ratios.append(_vector_sq(_inner_sphere(shell), "
           "ens.inner)[0]\n",
           "        ratios.append(r_in**0.2 * "
           "_vector_sq(_inner_sphere(shell), ens.inner)[0]\n",
           ("tests/test_ineqlab.py::test_seeded_reports_are_pinned",
            "tests/test_ineqlab.py::test_trace_scaling_invariance")),
    # the Robin term of the outer ghost row, -2/(h r), halved
    Mutant("robin_ghost_term_halved", "src/nsplab/elliptic.py",
           "    diag[-1] = -2.0 / hN**2 - 2.0 / (hN * rN) - 2.0 / rN**2 "
           "- shift\n",
           "    diag[-1] = -2.0 / hN**2 - 1.0 / (hN * rN) - 2.0 / rN**2 "
           "- shift\n",
           ("tests/test_elliptic.py::"
            "test_outer_robin_row_converges_on_the_monopole",
            "tests/test_elliptic.py::test_poisson_linearity",
            "tests/test_ineqlab.py::test_seeded_reports_are_pinned")),
    # the steady report's third-gradient norm fed rho/Phi in place of
    # their first derivatives
    Mutant("third_gradient_of_the_pair", "src/nsplab/steady.py",
           "             \"third\": _vector_hessian_norms(grid, d1,\n"
           "                                            "
           "differentiate(grid, d1, 1))}\n",
           "             \"third\": _vector_hessian_norms(grid, f,\n"
           "                                            "
           "differentiate(grid, f, 1))}\n",
           ("tests/test_steady.py::"
            "test_regularity_norms_are_the_batch_of_one_norms",
            "tests/test_steady.py::test_regularity_report_flat_background")),
    # the stencil flag of equal spacing set on every grid, so stretched
    # grids take the 3-point second derivative
    Mutant("stencil_flag_always_uniform", "src/nsplab/grids.py",
           "        uniform = ratio == 1.0\n",
           "        uniform = True\n",
           ("tests/test_grids.py::"
            "test_replaced_build_value_gives_the_freshly_built_grid",
            "tests/test_grids.py::"
            "test_stretched_grid_second_derivative_is_exact_on_cubics")),
    # the brackets stop when they agree within 10*tol, not tol
    Mutant("brackets_stop_at_ten_tol", "src/nsplab/steady.py",
           "        if gap < tol:\n",
           "        if gap < 10.0 * tol:\n",
           ("tests/test_steady.py::"
            "test_slow_contraction_steps_both_brackets_until_they_agree",
            "tests/test_steady.py::"
            "test_cli_steady_certifies_slowly_contracting_problems")),
    # the certificate without the monotonicity defect: only a crossing of
    # the brackets voids it
    Mutant("certificate_ignores_monotonicity_defect", "src/nsplab/steady.py",
           "    if max(crossing, defect) > 1e-9 * scale:\n",
           "    if crossing > 1e-9 * scale:\n",
           ("tests/test_steady.py::"
            "test_background_outside_the_bracket_is_not_certified",)),
    # the steady density's ceiling taken from the subsolution, so every
    # background above c_star fails its bounds
    Mutant("bounds_ceiling_of_the_subsolution", "src/nsplab/steady.py",
           "    ceiling = fluid.density(phi_super.values)\n",
           "    ceiling = fluid.density(phi_sub.values)\n",
           ("tests/test_steady.py::test_monotone_bounds_and_certificates",
            "tests/test_config_cli.py::test_cli_steady_success")),
    # the inner sphere's radial weight R^3 in place of R^2
    Mutant("inner_sphere_weight_cubed", "src/nsplab/ineqlab.py",
           "    return _Weights(np.array([grid.r_inner**2]), grid.w_theta, "
           "grid.w_phi)\n",
           "    return _Weights(np.array([grid.r_inner**3]), grid.w_theta, "
           "grid.w_phi)\n",
           ("tests/test_acceptance.py::test_criterion_11_trace_scaling",
            "tests/test_ineqlab.py::"
            "test_factor_path_matches_the_grid_operators",
            "tests/test_ineqlab.py::test_spherical_grid_is_its_build_values",
            "tests/test_ineqlab.py::test_trace_scaling_invariance")),
)
