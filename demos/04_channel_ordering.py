"""Channel orderings that decide when the no-key region applies.

Stochastic degradedness is decided by a linear program whose dual bound
proves the optimum it reports; the weaker less-noisy ordering can only be
falsified by exhibiting an input variable that the decoder's channel serves
better than the eavesdropper's.
"""

import numpy as np

from secsource import bsc, check_stochastic_degraded, less_noisy_falsify
from secsource.probability import StochasticMatrix

print("BSC(0.3) vs BSC(0.1): is the noisier channel a degraded version?")
cert = check_stochastic_degraded(bsc(0.3), bsc(0.1))
print(f"  feasible: {cert.feasible}, residual {cert.residual:.2e}")
print(f"  witness rows: {np.round(cert.witness.rows, 6).tolist()}")
print("  (0.1 * 0.25-composition indeed gives crossover 0.3)")

print("\nreversed pair BSC(0.1) vs BSC(0.3):")
rev = check_stochastic_degraded(bsc(0.1), bsc(0.3))
print(f"  feasible: {rev.feasible}, best residual {rev.residual:.4f} "
      f"(dual lower bound {rev.lower_bound:.4f} proves it optimal)")
verdict = less_noisy_falsify(bsc(0.1), bsc(0.3), trials=50, seed=0)
print(f"  less-noisy falsified: {verdict.falsified} "
      f"(I(L;Y)={verdict.i_l_y:.4f} > I(L;Z)={verdict.i_l_z:.4f})")

print("\na non-BSC example: Y built as Z followed by a random post-channel")
rng = np.random.default_rng(7)
p_z = StochasticMatrix(rng.dirichlet(np.ones(3), size=2))
post = StochasticMatrix(rng.dirichlet(np.ones(2), size=3))
p_y = StochasticMatrix(p_z.rows @ post.rows)
cert = check_stochastic_degraded(p_y, p_z)
print(f"  feasible: {cert.feasible}, residual {cert.residual:.2e}")
verdict = less_noisy_falsify(p_y, p_z, trials=100, seed=1)
print(f"  less-noisy falsified: {verdict.falsified} "
      f"(degradedness short-circuit: {verdict.via_degradedness})")
