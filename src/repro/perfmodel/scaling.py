"""Model-scale calibration constants.

The reproduction runs the paper's workloads at ~1/100 scale (DESIGN.md
substitution #3).  Two quantities in the performance model must shrink
with the datasets or the simulation changes *regime* rather than just
size:

* **Cache capacities** — at 1/100 scale every working set fits in a
  paper-sized L1/L2 and all frameworks look equally cache-friendly, which
  erases the locality differences Table 5 measures.  Scaling L1/L2 by
  :data:`CACHE_SCALE` keeps the (working set / cache) ratios of the
  original experiments.
* **Kernel launch overhead** — per-iteration kernel *work* shrinks ~100x
  while a real launch overhead is constant, which would make every
  traversal launch-bound and hide the work differences Figures 7-8
  measure.  :data:`~repro.sycl.backend.LAUNCH_OVERHEAD_SCALE` (applied in
  the backend traits) shrinks the overhead proportionally.

Both constants are deliberate model calibration, not tuning against the
paper's numbers: each is one fixed value, shared by every framework,
device and dataset scale profile.  They are not the datasets' size
ratio, and they differ from each other tenfold (``CACHE_SCALE = 0.005``,
``LAUNCH_OVERHEAD_SCALE = 0.05``), while the stand-ins' edge counts are
0.0016-0.019 of the originals' at the ``small`` profile.  So the profiles
do not all sit in one regime: a larger profile shrinks the caches
relative to its working sets.
"""

#: factor applied to L1/L2 capacities in the cost model (a fixed
#: calibration, not the dataset size ratio; see above).
CACHE_SCALE = 0.005
