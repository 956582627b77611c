from fractions import Fraction

import numpy as np
import pytest

from mcland.certify import PointClass
from mcland.concentration import ConcentrationTrial, Kind
from mcland.csvio import field_value, write_csv
from mcland.instance import HyperParams, InstanceSpec


def test_write_csv_applies_the_cell_rule_to_every_cell():
    header = ("none", "yes", "no", "f64", "nan", "negzero", "kind", "cls", "int", "text")
    row = [None, True, False, np.float64(0.1), float("nan"), -0.0, Kind.SPECTRAL,
           PointClass.GLOBAL_MIN, 7, "grad_tol_reached"]
    text = write_csv(header, [row])
    assert text == ",".join(header) + "\n,true,false,0.1,nan,-0.0,spectral,GlobalMin,7,grad_tol_reached\n"


def test_an_integer_too_large_for_a_float_is_a_value_error_naming_its_field():
    # float(10**400) raises OverflowError, which the records once let through bare
    huge = 10**400
    with pytest.raises(ValueError, match="^sigma is too large for a float"):
        InstanceSpec(d=20, r=1, seed=1, p=0.8, sigma=huge)
    with pytest.raises(ValueError, match="^alpha is too large for a float"):
        HyperParams(alpha=huge, reg_weight=1.0, tau=0.1)
    with pytest.raises(ValueError, match="^p is too large for a float"):
        ConcentrationTrial(kind="spectral", d=10, p=-huge)
    for real in (huge, Fraction(huge)):
        with pytest.raises(ValueError, match="^'hyper.alpha' is too large for a float$"):
            field_value("'hyper.alpha'", real, float)
    # an integer a float holds is still stored as that float
    assert field_value("x", 2**1000, float) == 2.0**1000
    assert field_value("x", huge, int) == huge
