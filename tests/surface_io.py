"""Reader for the surface files ``eivmix surface`` writes, used by the tests
to check that every value survives the text round trip."""

import numpy as np

from eivmix import SurfaceGrid


def read_surface(path) -> SurfaceGrid:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    axes = {}
    argmin = None
    alpha_at_min = None
    rows = []
    in_values = False
    for line in lines:
        if not line or line.startswith("#"):
            continue
        if in_values:
            rows.append([float(v) for v in line.split()])
            continue
        name, _, rest = line.partition(":")
        rest = rest.strip()
        if name in ("axis1", "axis2"):
            i, lo, hi, n = rest.split()
            axes[name] = (int(i), float(lo), float(hi), int(n))
        elif name == "argmin":
            a, b = rest.split()
            argmin = (int(a), int(b))
        elif name == "alpha_at_min":
            alpha_at_min = np.array([float(v) for v in rest.split()])
        elif name == "values":
            in_values = True
    if "axis1" not in axes or "axis2" not in axes or argmin is None:
        raise ValueError(f"malformed surface file {path}")
    values = np.asarray(rows, dtype=float)
    if values.shape != (axes["axis1"][3], axes["axis2"][3]):
        raise ValueError(f"surface grid shape mismatch in {path}")
    return SurfaceGrid(
        axis1=axes["axis1"],
        axis2=axes["axis2"],
        values=values,
        argmin=argmin,
        alpha_at_min=alpha_at_min,
    )
