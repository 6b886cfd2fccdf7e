"""Desk-scale federated multimodal sentiment simulator.

Clients fuse visual/audio/text representations weighted by Monte-Carlo
dropout uncertainty; the server aggregates shared parameters weighted by
client reliability (inverse mean uncertainty). Includes synthetic data
generation with controllable heterogeneity, missing-modality and
noisy-client protocols, baselines, and a sweep CLI.

Names are imported from their modules; the package itself only pins
OpenBLAS, which runs on the first import of any of them.
"""


def _pin_openblas() -> None:
    """Run numpy's bundled OpenBLAS on one thread: the matrices are a few
    hundred rows, so BLAS threads only compete with client threads and sweep
    workers. A set OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS
    wins, and another BLAS build is left alone. The count is set through the
    library because the variables act only before numpy loads it."""
    import os

    if any(v in os.environ for v in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        return
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        try:
            set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)


_pin_openblas()
