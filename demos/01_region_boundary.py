"""Trace the lossy rate-distortion boundary of the binary running example.

The source X is a uniform bit; the encoder sees it through a BSC(0.1), the
decoder through a BSC(0.2), and the eavesdropper through a BSC(0.3).  We
minimize the storage rate over auxiliary channels at each target distortion,
with a certified interval for it, then sweep the private-key rate to show the
three leakage regimes.
"""

import numpy as np

from secsource import (
    AuxScheme,
    DistortionMetric,
    SearchConfig,
    bsc,
    build_joint,
    extend_with_auxiliaries,
    lossy_point,
    trace_region,
)
from secsource.probability import Pmf, SourceModel

model = SourceModel.from_channels(Pmf.uniform(2), bsc(0.1), bsc(0.2), bsc(0.3))
joint = build_joint(model)
metric = DistortionMetric.hamming(2)

# --- storage-vs-distortion boundary (no key) --------------------------------
# The storage search is a linear program over the posteriors P(Xt | U = u);
# its duals certify an interval [lower bound, rw] for the least storage rate.
targets = np.linspace(0.0, 0.35, 8)
cfg = SearchConfig(u_size=3, v_size=1, q_size=1)
points = trace_region(model, 0.0, metric, list(targets), cfg)

print("distortion  certified rw interval     rs        rl        regime")
for p in points:
    r = p.rates
    print(f"{p.target_d:9.3f}  [{p.lower_bound:.8f}, {r.rw:.8f}]  {r.rs:8.4f}  {r.rl:8.4f}  "
          f"{p.report.regime}")

# --- key-rate sweep for the lossless scheme U = Xt ---------------------------
full = extend_with_auxiliaries(joint, AuxScheme.identity(2))
h_xt_y = full.mutual_information(("U",), ("Xt",), ("Y",))
print(f"\nkey-rate sweep (U = Xt; storage bound stays {h_xt_y:.4f} bits):")
print("r0        rs        rl        regime")
for r0 in np.linspace(0.0, 1.1 * h_xt_y, 8):
    rep = lossy_point(full, float(r0), metric)
    print(f"{r0:7.4f}  {rep.bounds.rs:8.4f}  {rep.bounds.rl:8.4f}  {rep.regime}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 3.5))
    ax.plot([p.target_d for p in points], [p.rates.rw for p in points], "o-",
            label="storage rate")
    ax.plot([p.target_d for p in points], [p.rates.rs for p in points], "s--",
            label="secrecy leakage")
    ax.set_xlabel("distortion D")
    ax.set_ylabel("bits/symbol")
    ax.legend()
    fig.tight_layout()
    fig.savefig("region_boundary.png", dpi=120)
    print("\nwrote region_boundary.png")
except ImportError:
    pass
