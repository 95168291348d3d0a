import ctypes

from rfom2 import blas


def test_pools_are_probed_once(monkeypatch):
    # a later call, and a run's scope, reuse the first call's handles
    first = blas.openblas_pools()
    built, cdll = [], ctypes.CDLL

    def counting_cdll(*args, **kw):
        built.append(args)
        return cdll(*args, **kw)

    monkeypatch.setattr(ctypes, "CDLL", counting_cdll)
    assert isinstance(first, tuple)
    assert blas.openblas_pools() is first
    with blas.one_thread_per_caller():
        pass
    assert built == []
