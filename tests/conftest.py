import numpy as np
import pytest

from anisolab import surface as sf


def stack2(a, b, d):
    """The symmetric 2x2 stack [[a, b], [b, d]] of entry planes, shape
    (..., 2, 2), for einsum and LAPACK oracles."""
    return np.stack([np.stack([a, b], axis=-1), np.stack([b, d], axis=-1)], axis=-2)


def higher_order_enneper_jets(k: int):
    """Weierstrass chart with plane data (1, z^k): an exact area-minimal
    surface whose Gauss map branches to order k-1 at the origin."""

    def jets(U, V):
        z = U + 1j * V
        phi = np.stack(
            [0.5 * (1 - z ** (2 * k)), 0.5j * (1 + z ** (2 * k)), z**k], axis=-1
        )
        dphi = np.stack(
            [-k * z ** (2 * k - 1), 1j * k * z ** (2 * k - 1), k * z ** (k - 1)],
            axis=-1,
        )
        x = np.stack(
            [
                np.real(z / 2 - z ** (2 * k + 1) / (2 * (2 * k + 1))),
                np.real(1j * (z + z ** (2 * k + 1) / (2 * k + 1)) / 2),
                np.real(z ** (k + 1) / (k + 1)),
            ],
            axis=-1,
        )
        return {
            "x": x,
            "xu": np.real(phi),
            "xv": -np.imag(phi),
            "xuu": np.real(dphi),
            "xuv": -np.imag(dphi),
            "xvv": -np.real(dphi),
        }

    return jets


def near_corner_enneper():
    """The (1, z^2) chart on [-0.01, 1]^2 at grid 101: its flat point sits
    about one node spacing inside two edges of the patch."""
    return sf.from_jet("enneper_order_2", higher_order_enneper_jets(2),
                       (-0.01, 1.0, -0.01, 1.0), (101, 101))


def higher_order_enneper(k: int, grid: int = 97, radius: float = 1.0):
    # odd grids place a node exactly on the flat point at the origin
    return sf.from_jet(
        f"enneper_order_{k}",
        higher_order_enneper_jets(k),
        (-radius, radius, -radius, radius),
        (grid, grid),
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
