import numpy as np
import pytest

from susyinv import timefunc as tf

CONFIG_DIR_NAME = "configs"


@pytest.fixture(scope="session")
def config_dir():
    from pathlib import Path
    return Path(__file__).resolve().parent.parent / CONFIG_DIR_NAME


def random_gauge_draw(rng, family: str):
    """One (f, theta, phi) triple from the closed time-function family.

    Spin coefficients span [-2, 2]; the oscillator hyperbolic angle is kept
    small because a truncated squeeze spreads a number state by about
    2 * theta * n levels, which must stay inside the edge buffer.
    """
    def coeff(lo=-2.0, hi=2.0):
        return repr(rng.uniform(lo, hi))

    def sinusoid(kind):
        return f"{kind}({rng.uniform(0.5, 4.0)!r}*t + {rng.uniform(0, 6.28)!r})"

    f = tf.parse(f"{coeff()} + {coeff()}*{sinusoid('sin')}")
    if family == "spin":
        theta = tf.parse(f"{coeff()} + {coeff()}*{sinusoid('sin')}")
    else:
        theta = tf.parse(f"{coeff(-0.005, 0.005)} + {coeff(-0.005, 0.005)}*{sinusoid('sin')}")
    phi = tf.parse(f"{coeff()} + {coeff()}*t + {coeff()}*{sinusoid('cos')}")
    return f, theta, phi


@pytest.fixture(scope="session")
def spin_draws():
    rng = np.random.default_rng(20240901)
    return [random_gauge_draw(rng, "spin") for _ in range(20)]


@pytest.fixture(scope="session")
def osc_draws():
    rng = np.random.default_rng(20240902)
    return [random_gauge_draw(rng, "oscillator") for _ in range(20)]
