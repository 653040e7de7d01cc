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
    Mutant("poisson_density_angular_term_halved", "src/nsplab/elliptic.py",
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
)
