"""Random-binning codec walkthrough on the binary running example.

Designs a layered binning code for U = Xt (lossless target), shows the rate
choices and the Slepian-Wolf phase transition, then demonstrates the
one-time-pad regimes: the key slot first shrinks the leakage linearly, and a
large enough key makes the transmitted message exactly uniform.
"""

import numpy as np

from secsource import (
    AuxScheme,
    DistortionMetric,
    bsc,
    build_joint,
    design_code,
    exact_leakage,
    extend_with_auxiliaries,
    lossy_point,
    padded_indices_mutual_information,
    run_experiment,
)
from secsource.binning import BinningRates
from secsource.probability import Pmf, SourceModel

model = SourceModel.from_channels(Pmf.uniform(2), bsc(0.1), bsc(0.2), bsc(0.3))
joint = build_joint(model)
full6 = extend_with_auxiliaries(joint, AuxScheme.identity(2))

h_xt_y = joint.entropy(("Xt", "Y")) - joint.entropy(("Y",))
print(f"side-information conditional entropy H(Xt|Y) = {h_xt_y:.4f} bits")

# --- rate choices and reliability vs blocklength -----------------------------
code = design_code(full6, n=400, epsilon=0.15, r0=0.0, seed=1)
print(f"\ndesigned rates: {code.rates}")
print(f"pad regime: {code.mode}; SW conditions satisfied: "
      f"V={code.sw_v_ok} U={code.sw_u_ok}")

print("\nreliability vs blocklength (bin rate H(Xt|Y) + 0.3):")
for n in (50, 100, 200, 400):
    c = design_code(full6, n=n, epsilon=0.15, r0=0.0, seed=1)
    rep = run_experiment(c, model, trials=300, seed=2)
    print(f"  n={n:4d}: error rate {rep.error_rate:.3f}  engine={rep.engine}")

print("\nbelow the Slepian-Wolf threshold the same decoder collapses:")
bad = BinningRates(rv_tilde=0.0, rv=0.0, ru_tilde=0.0, ru=h_xt_y - 0.1, r0=0.0)
c = design_code(full6, n=400, epsilon=0.15, r0=0.0, seed=1, rate_override=bad)
rep = run_experiment(c, model, trials=300, seed=2)
print(f"  n=400, bin rate H(Xt|Y) - 0.1: error rate {rep.error_rate:.3f}")

# --- leakage: measured against the single-letter bound -----------------------
print("\nplug-in secrecy-leakage estimate vs key rate (n = 400):")
for r0 in (0.0, 0.3, 0.6, 1.2, 2.0):
    c = design_code(full6, n=400, epsilon=0.15, r0=r0, seed=1)
    rep = run_experiment(c, model, trials=300, seed=3)
    print(f"  r0={r0:4.1f}: mode={c.mode:8s} leak_secrecy={rep.leak_secrecy:.4f} "
          f"leak_privacy={rep.leak_privacy:.4f}")

# --- exact small-blocklength checks ------------------------------------------
# At r0 = 0 the key slot is empty: the single-letter targets are the
# small-key bounds rs = H(Xt|Z) + R' and rl = I(Xt;X|Z) + R' of U = Xt.
targets = lossy_point(full6, 0.0, DistortionMetric.hamming(2)).bounds
print("\nexact finite-n leakage (enumeration, r0 = 0) against the single-letter targets:")
print(f"  target: secrecy {targets.rs:.4f}   privacy {targets.rl:.4f}")
for n in (10, 12, 14):
    c = design_code(full6, n=n, epsilon=0.03, r0=0.0, seed=4)
    leak = exact_leakage(c, model)
    print(f"  n={n}:   I(Xt^n; W | Z^n)/n = {leak.secrecy:.4f}   I(X^n; W | Z^n)/n = {leak.privacy:.4f}")

print("\nfull-pad regime at n = 6: the message is exactly uniform:")
c6 = design_code(full6, n=6, epsilon=0.15, r0=2.0, seed=5)
mi, p_pad = padded_indices_mutual_information(c6, model)
print(f"  mode={c6.mode}; I(Xt^n; padded indices) = {mi:.2e} bits "
      f"over {p_pad.size} values")
