import numpy as np
import pytest
from steinervn.seeding import derive_seed


@pytest.mark.parametrize("coords, expected", [
    ((), 13379413122819086221),
    ((0,), 4101710254135096730),
    ((False,), 4101710254135096730),  # a bool hashes as its int
    ((1,), 11090970918025167017),
    ((True,), 11090970918025167017),
    ((np.bool_(True),), 11090970918025167017),
    ((0.5,), 17778809602803632719),
    ((np.float64(0.5),), 17778809602803632719),
    ((0.0,), 17624765769277739886),
    ((-0.0,), 6748846384711828808),  # floats hash by their bits
    (("",), 15398557178733649558),
    (("start",), 17458992224736025057),
    (("start", 3), 13455664395633329979),
])
def test_derive_seed_is_pinned_for_every_coordinate_type(coords, expected):
    assert derive_seed(0, *coords) == expected


def test_derive_seed_pins_numpy_integers_and_utf8_strings():
    assert derive_seed(7, np.int64(-2), "é") == derive_seed(7, -2, "é") == 14411432924180193420


@pytest.mark.parametrize("part", [None, (1,), b"start", 1j])
def test_derive_seed_rejects_other_types(part):
    with pytest.raises(TypeError, match="cannot hash seed coordinate"):
        derive_seed(0, part)
