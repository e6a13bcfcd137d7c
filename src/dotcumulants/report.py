"""The limiting delay-time cumulant table: exact beta=2 column from the
limiting recurrence, beta=1 and beta=4 columns by Richardson extrapolation of
the exact finite-n values, with reference targets and the suspected erratum
flagged."""

from __future__ import annotations

from .asymptotics import extrapolate_limit, limit_wigner, scaling_exponent
from .params import DelayParams
from .rational import rat, rational_str
from .wigner import wigner_cumulants

#: Reference targets for the extrapolated columns (beta=1 integers are the
#: published values; whether they are always integral is open).
TABLE2_TARGETS = {
    1: [rat(1), rat(4), rat(96), rat(5088), rat(437760), rat(53038080),
        rat(8353013760), rat(1625430159360)],
    4: [rat(1), rat(1), rat(6), rat(159, 2), rat(1710), rat(51795),
        rat(2039310), rat(396833535, 4)],
}

#: The printed beta=2, l=3 entry is 4; both the limiting recurrence and the
#: exact third-cumulant limit (96 / beta^2 = 24) give 24; we report 24 and
#: flag the printed value as a suspected erratum.
PRINTED_BETA2_L3 = 4


def limiting_delay_table(max_order=8, n_list=(64, 96, 128, 192, 256)):
    """Regenerates all three columns of the limiting-cumulant table."""
    exact = limit_wigner(max_order)
    beta2 = []
    for l in range(1, max_order + 1):
        entry = {
            "l": l,
            "value": rational_str(exact.values[l]),
            "scaling_exponent": exact.scaling_exponent[l],
        }
        if l == 3:
            entry["suspected_erratum"] = {
                "printed_value": PRINTED_BETA2_L3,
                "computed_value": rational_str(exact.values[l]),
                "cross_check": "exact third-cumulant limit 96/beta^2 = 24",
            }
        beta2.append(entry)
    columns = {"2": beta2}
    for beta in (1, 4):
        rows = [(n, wigner_cumulants(DelayParams(beta, n), max_order)) for n in n_list]
        col = []
        for l in range(1, max_order + 1):
            samples = [(n, row[l]) for n, row in rows]
            est, err = extrapolate_limit(samples, scaling_exponent("wigner", l))
            target = TABLE2_TARGETS[beta][l - 1]
            rel = abs(est / float(target) - 1.0)
            col.append(
                {
                    "l": l,
                    "estimate": est,
                    "error_bar": err,
                    "target": rational_str(target),
                    "rel_deviation": rel,
                    "within_half_percent": rel <= 5e-3,
                }
            )
        columns[str(beta)] = col
    return {
        "n_list": list(n_list),
        "max_order": max_order,
        "columns": columns,
    }
