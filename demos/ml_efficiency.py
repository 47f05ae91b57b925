"""Is the bound achievable? A maximum-likelihood estimator says yes.

Simulates sampled received pulses on a six-satellite geometry (one at zenith,
five on a 30-degree ring), runs the full ML localization pipeline on each
noisy draw — matched filters, a coarse grid with the clock profiled out, then
Fisher-scoring refinement of the exact profiled likelihood — and compares the
empirical mean squared error against the position bound at each SNR.

Two estimation modes run on the same measurements: `fix_z` pins the receiver
to the known surface height and estimates (x, y, clock); `full_3d` estimates
all four parameters. The vertical coordinate is poorly observed from above
(all satellites high in the sky), so the 3D error is dominated by z and sits
an order of magnitude above the planar error, exactly as the bound predicts.
"""

import time

from satcrb import SystemParams, mse_experiment, signal_crb, zenith_ring_geometry
from satcrb.signal_ml import default_signal_config

SEED = 20260819
TRIALS = 100  # raise for tighter ratios; 200 reproduces the shipped experiment


def main() -> None:
    params = SystemParams()
    geometry = zenith_ring_geometry(params)
    config = default_signal_config(c=params.c)
    print(__doc__)
    full = signal_crb(geometry, config, mode="full_3d")
    flat = signal_crb(geometry, config, mode="fix_z")
    print(f"bound anisotropy at reference noise: z/xy = {full.z / full.xy:.1f} "
          f"(fix_z xy bound {flat.xy:.3e} km^2)\n")
    t0 = time.time()
    rows = mse_experiment(
        geometry, config, [10.0, 16.0, 22.0, 28.0], trials=TRIALS, seed=SEED
    )
    header = (f"{'SNR[dB]':>8} {'MSE_xy':>11} {'CRB_xy':>11} {'ratio':>6} "
              f"{'MSE_xyz':>11} {'CRB_xyz':>11} {'ratio':>6}")
    print(header)
    print("-" * len(header))
    for r in rows:
        print(f"{r.snr_db:8.0f} {r.mse_xy:11.4e} {r.crb_xy:11.4e} "
              f"{r.mse_xy / r.crb_xy:6.2f} {r.mse_xyz:11.4e} "
              f"{r.crb_xyz:11.4e} {r.mse_xyz / r.crb_xyz:6.2f}")
    print(f"\n{TRIALS} trials per SNR, {time.time() - t0:.1f} s. Ratios near "
          "1.0 mean the estimator attains the bound; values drift up near the "
          "detection threshold where outlier lock-ons appear.")


if __name__ == "__main__":
    main()
