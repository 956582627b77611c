import numpy as np

from mcland.certify import PointClass
from mcland.concentration import Kind
from mcland.csvio import write_csv


def test_write_csv_applies_the_cell_rule_to_every_cell():
    header = ("none", "yes", "no", "f64", "nan", "negzero", "kind", "cls", "int", "text")
    row = [None, True, False, np.float64(0.1), float("nan"), -0.0, Kind.SPECTRAL,
           PointClass.GLOBAL_MIN, 7, "grad_tol_reached"]
    text = write_csv(header, [row])
    assert text == ",".join(header) + "\n,true,false,0.1,nan,-0.0,spectral,GlobalMin,7,grad_tol_reached\n"

