"""The correlation kernel and the rate step.

The channel toward a ground node is the bare steering vector of the array
for that node's look angles: there is no path loss term, so range enters
only through the angles.  The correlation between two steering vectors
factors into a product of two geometric sums, one per array axis, which is
what both placement schemes exploit; the package evaluates it in that
factored form (:func:`correlation_magnitude`), and the tests check it
against the explicit steering vectors.

The confidential stream is beamformed with the receiver's own steering
vector, and artificial noise is projected onto the orthogonal complement of
that vector.  The receiver therefore sees no noise leakage and its SINR is
alpha*P/sigma_b^2 at every transmitter position; the eavesdropper's SINR is
governed entirely by the correlation rho between the two steering vectors.
Secrecy rate is log2(1+SINR_b) - log2(1+SINR_e), clipped at zero.

|rho| at canonical-frame transmitter positions comes from one kernel, in
floats or over numpy arrays, :func:`correlation_magnitude`, and rates from
one step, :func:`_rate_cells` over the rows :func:`_budget_rows` builds;
every caller shares both.
"""

import math

from .errors import InvalidCorrelation


def _axis_sum_magnitude(sqrt, bits: str, c, s):
    """|sum(r^i for i in range(count))|, elementwise, for the unit rotor r
    of real part ``c`` = cos(step) and imaginary part ``s`` = sin(step),
    with ``bits`` = bin(count)[3:] and ``sqrt`` the backend's.

    Binary doubling over the bits of ``count`` from the top: with S(j) the
    sum of the first j terms,

        S(2j) = S(j) * (1 + r^j)    and    S(j+1) = S(j) + r^j,

    ~2*log2(count) products of (real, imaginary) float pairs, and no limit
    handling at a step that is a multiple of 2*pi.
    """
    t_re, t_im, p_re, p_im = 1.0, 0.0, c, s  # S(j) and r^j at j = 1
    for bit in bits:
        q_re = 1.0 + p_re
        t_re, t_im = t_re * q_re - t_im * p_im, t_re * p_im + t_im * q_re
        p_re, p_im = p_re * p_re - p_im * p_im, 2.0 * p_re * p_im
        if bit == "1":
            t_re, t_im = t_re + p_re, t_im + p_im
            p_re, p_im = p_re * c - p_im * s, p_re * s + p_im * c
    return sqrt(t_re * t_re + t_im * t_im)


def correlation_magnitude(scenario: "ScenarioConfig", x_e: float, xp):
    """|h_e^H h_b| as a function of canonical-frame transmitter points (x, y)
    at the platform height, with the scenario's array, yaw and height, ``x_e``
    and the backend's functions read once.

    The one evaluation of the correlation in the package: the placement
    module binds it over :mod:`math` once per scenario object, for
    certification and the sweeps' baselines, and over numpy once per
    correlation map.  The canonical frame puts the receiver at the origin
    and the eavesdropper at ``x_e`` on the +x axis, both on the ground, so
    the slant range to either is at least the height g > 0.  ``xp`` is the
    backend: numpy, for arrays that broadcast together and a result of their
    broadcast shape (except that an M = N = 1 antenna gives the scalar 1.0,
    whatever the shape of the points), or :mod:`math`, for one point in
    floats.  The kernel takes real floats through ``+ - * /``, ``abs``, the
    largest of three, ``sqrt``, ``cos`` and ``sin`` only, in one source for
    both backends.  All but ``cos`` and ``sin``, the only libm calls, are
    exact or correctly rounded, so a point gives the same bits alone as in
    any batch, on every dispatch target, and on either backend.

    The element double sum factors into one geometric sum per array axis,
    with phase increments a = coef * (u_e - u_b) and b = coef * (v_e - v_b)
    (coef the array phase coefficient), where for each node

        u = ((x - node.x)*cos(yaw) + y*sin(yaw)) / slant range
        v = (y*cos(yaw) - (x - node.x)*sin(yaw)) / slant range

    are the direction cosines of the node along the array's two axes, ratios
    taken with the node's vector (x - node.x, y, g) divided by its own largest
    component k >= g > 0, so that no square overflows (one k for both nodes
    gives nan at x_e = 1e200).  So each point costs |sum_m e^{i m a}| *
    |sum_n e^{i n b}| / (M*N): O(log M + log N) work instead of O(M*N).  Both
    sums are evaluated in full, not by their ratio form, which keeps the
    result independent of the null equations the solvers use.  Directly
    over a node both direction cosines are 0 and the value is the limit.
    """
    geom = scenario.array
    coef, size = geom.phase_coef, geom.size
    c, s = math.cos(scenario.yaw), math.sin(scenario.yaw)
    g = scenario.uav_height_m
    row_bits, col_bits = bin(geom.m_rows)[3:], bin(geom.n_cols)[3:]
    sqrt, cos, sin = xp.sqrt, xp.cos, xp.sin
    largest = max if xp is math else lambda p, q, r: xp.maximum(xp.maximum(p, q), r)
    axis_sum = _axis_sum_magnitude

    def magnitude(x, y):
        xe, ay = x - x_e, abs(y)
        k_b, k_e = largest(abs(x), ay, g), largest(abs(xe), ay, g)
        x_b, y_b, g_b = x / k_b, y / k_b, g / k_b
        xe, y_e, g_e = xe / k_e, y / k_e, g / k_e
        s_b = sqrt(x_b * x_b + y_b * y_b + g_b * g_b)
        s_e = sqrt(xe * xe + y_e * y_e + g_e * g_e)
        a = coef * ((xe * c + y_e * s) / s_e - (x_b * c + y_b * s) / s_b)
        b = coef * ((y_e * c - xe * s) / s_e - (y_b * c - x_b * s) / s_b)
        rows = axis_sum(sqrt, row_bits, cos(a), sin(a))
        return rows * axis_sum(sqrt, col_bits, cos(b), sin(b)) / size

    return magnitude


def _budget_rows(total_power_w: float, alpha, noise_b_w, noise_e_w) -> list[tuple]:
    """One (log2(1 + SINR_b), alpha*P, (1-alpha)*P, sigma_e^2) row per budget,
    each checked where it entered (a PowerConfig, or the sweep's grid): the
    receiver's SINR alpha*P/sigma_b^2 does not depend on the position, so
    its log is taken once per budget."""
    log2, p = math.log2, total_power_w
    return [
        (log2(1.0 + a * p / n_b), a * p, (1.0 - a) * p, n_e)
        for a, n_b, n_e in zip(alpha, noise_b_w, noise_e_w)
    ]


def _rate_cells(rhos, budgets) -> list[list[float]]:
    """The secrecy rate of every (budget row, position) cell, one list per
    correlation (or its magnitude) in ``rhos``: the package's one rate
    computation.  |rho|^2 is clipped to 1 after rounding, and
    InvalidCorrelation raised beyond it.  The eavesdropper keeps 1 - |rho|^2
    of the artificial noise:

        SINR_e = alpha*P*|rho|^2 / ((1-alpha)*P*(1-|rho|^2) + sigma_e^2).
    """
    log2 = math.log2
    rates = []
    for rho in rhos:
        m = abs(rho) ** 2
        if m > 1.0 + 2e-9:
            raise InvalidCorrelation(f"|rho| = {math.sqrt(m):.6g} exceeds 1")
        m = min(m, 1.0)
        k = 1.0 - m
        rates.append([  # the clip has max(0.0, r)'s bits, without the call
            r if (r := bob - log2(1.0 + sig * m / (jam * k + n_e))) > 0.0 else 0.0
            for bob, sig, jam, n_e in budgets
        ])
    return rates
