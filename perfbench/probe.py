"""Times `import halflearn` in a fresh interpreter and records the
environment the run measured.

Usage: python3 perfbench/probe.py [--check-moments]
Prints one JSON line. With --check-moments it also compares the moment
kernel against a direct product-of-powers evaluation, on every machine,
whichever kernel is active.
"""

# Only sys and time load before the timed import, so modules that
# halflearn pulls in (numpy, json, ctypes, ...) are counted in it.
import sys
import time


def blas_threads():
    """Threads of the OpenBLAS that NumPy loaded, or None if not found."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libraries = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    for library in libraries:
        dll = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(dll, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return None


def check_moments():
    """None if batch_empirical_moments matches sum(prod x_i^a_i) / n."""
    import numpy as np
    from halflearn.moments import batch_empirical_moments, enumerate_monomials
    rng = np.random.default_rng(20230309)
    for d, k in ((4, 4), (3, 6), (8, 2)):
        points = rng.standard_normal((3000, d))
        monomials = enumerate_monomials(d, k)
        kernel = batch_empirical_moments(points, monomials)
        direct = np.array([np.mean(np.prod(points ** np.array(m.exponents),
                                           axis=1)) for m in monomials])
        if not np.allclose(kernel, direct, rtol=1e-10, atol=1e-12):
            worst = float(np.max(np.abs(kernel - direct)))
            return f"moment kernel off by {worst:.3g} at d={d}, k={k}"
    return None


def main():
    began = time.perf_counter()
    import halflearn
    import_s = time.perf_counter() - began

    import json
    import os

    import numpy as np
    result = {
        "import_s": import_s,
        "using_extension": getattr(halflearn, "USING_EXTENSION", None),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    if "--check-moments" in sys.argv[1:]:
        result["moment_check_error"] = check_moments()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
