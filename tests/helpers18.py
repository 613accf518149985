"""Hand-derived closed forms for the alpha = 18 construction.

Everything here is written straight from the worked example's displays,
independent of the package's recursion, so the two can be compared.
"""

from mpmath import mp, mpf

from hypgold.reference import to_mpf


def alpha18_expected(lam_sq: dict, xi2_sq, xi9_sq, precision: int = 128) -> dict:
    """Expected x_4..x_13, xi_6^2..xi_8^2, F_5, F_7, xi_10^2..xi_13^2."""
    with mp.workprec(precision):
        z2sq = to_mpf(xi2_sq, precision)
        z9sq = to_mpf(xi9_sq, precision)
        l3sq = to_mpf(lam_sq[3], precision)
        l4sq = to_mpf(lam_sq[4], precision)
        l5sq = to_mpf(lam_sq[5], precision)
        l7sq = to_mpf(lam_sq[7], precision)
        l3, l4, l5 = mp.sqrt(l3sq), mp.sqrt(l4sq), mp.sqrt(l5sq)
        half = mpf(1) / 2

        x = {}
        x[4] = x[5] = half * z2sq
        x[6] = x[7] = (l3 - half) * z2sq
        x[8] = (l4 * l3 - half) * z2sq
        x[9] = (l4 * l3 - l3 + half * l3sq) * z2sq
        x[10] = x[11] = (l5 * l4 * l3 - l3 + half * l3sq) * z2sq
        x[12] = x[13] = (
            mp.sqrt(2 * (l3 - half)) * l5 * l4 * l3
            - l4 * l3 + l4 * l3sq - half * l3sq
        ) * z2sq

        xi_sq = {
            6: 2 * (l3 - half) * l5sq * l4sq * l3sq * z2sq,
        }
        xi_sq[7] = l7sq * xi_sq[6]
        xi_sq[8] = (x[8] / x[7]) * xi_sq[7]
        xi_sq[9] = z9sq

        f5 = (mpf(13) / 5) * (1 / (2 * l3sq * l4sq)) * (1 - 1 / l5sq)
        f7 = (mpf(11) / 7) * (1 / (2 * l3sq * l4sq * l5sq)) * (1 - 1 / l7sq)

        # |y_8| = x_9, |y_7| = x_10, |y_6| = x_11, |y_5| = x_12, |y_4| = x_13.
        xi_sq[10] = (x[10] / x[9]) * z9sq
        xi_sq[11] = x[11] / (x[9] / z9sq + f7)
        xi_sq[12] = x[12] / (x[9] / z9sq + f7)
        xi_sq[13] = x[13] / (x[9] / z9sq + f5 + f7)

        return {"x": x, "xi_sq": xi_sq, "F5": f5, "F7": f7}
