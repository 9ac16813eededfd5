import pytest
from hypothesis import settings

from qtanner import cayley, codes, tanner

A13 = [1, 12, 5, 8]


@pytest.fixture(scope="session")
def ref_code():
    """Z13, delta 4, rho 1/4: the n = 208 instance used throughout."""
    g = cayley.build_group("cyclic", 13)
    cx = cayley.build_complex(g, A13, A13)
    return tanner.QuantumTannerCode(cx, codes.repetition_code(4), codes.parity_code(4))


@pytest.fixture(scope="session")
def z_side():
    """The code that decodes the Z errors of a code, as a function of the
    code: dual local codes, V0/V1 swapped (what a "side": "Z" config
    builds).  Exact exchange: z.h_x == code.h_z and z.h_z == code.h_x."""
    def build(code):
        return tanner.QuantumTannerCode(code.complex, code.local_a.dual(), code.local_b.dual(),
                                        flip_roles=not code.flip_roles)
    return build


@pytest.fixture(scope="session")
def tiny_code():
    """Z3, delta 2, rep_2 locals: small enough for exact reduced weights."""
    g = cayley.build_group("cyclic", 3)
    cx = cayley.build_complex(g, [1, 2], [1, 2])
    return tanner.QuantumTannerCode(cx, codes.repetition_code(2), codes.repetition_code(2))


@pytest.fixture(scope="session")
def z5_code():
    """Z5, delta 2, C_B the full space: H_Z is empty (degenerate but legal)."""
    g = cayley.build_group("cyclic", 5)
    cx = cayley.build_complex(g, [1, 4], [1, 4])
    return tanner.QuantumTannerCode(cx, codes.repetition_code(2), codes.full_space(2))


@pytest.fixture(scope="session")
def rep3_par3_code():
    """Z8, delta 3, rep_3 and par_3 locals: the three faces of a local row
    share one local syndrome, so coset leaders tie."""
    g = cayley.build_group("cyclic", 8)
    cx = cayley.build_complex(g, [1, 7, 4], [1, 7, 4])
    return tanner.QuantumTannerCode(cx, codes.repetition_code(3), codes.parity_code(3))


@pytest.fixture(scope="session")
def unique_code():
    """Z8, delta 3, rep_3 locals: distinct local-check columns give unique
    weight-1 coset leaders, so isolated errors decode exactly."""
    g = cayley.build_group("cyclic", 8)
    cx = cayley.build_complex(g, [1, 7, 4], [1, 7, 4])
    return tanner.QuantumTannerCode(cx, codes.repetition_code(3), codes.repetition_code(3))


@pytest.fixture(scope="session")
def rep5_code():
    """Z12, delta 5, rep_5 locals (n = 300, t_loc = 2): r = 16, so the
    enumeration oracle still fills all 2^16 syndromes (in about half a
    second), and the 25-bit local views exceed 16 bits."""
    g = cayley.build_group("cyclic", 12)
    gens = [1, 11, 2, 10, 6]
    cx = cayley.build_complex(g, gens, gens)
    return tanner.QuantumTannerCode(cx, codes.repetition_code(5), codes.repetition_code(5))


# Property tests draw the same examples on every run, so tier-1 stays
# reproducible; example counts are kept small to bound its run time.
settings.register_profile(
    "qtanner", derandomize=True, max_examples=25, deadline=None, database=None
)
settings.load_profile("qtanner")
