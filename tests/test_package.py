import inspect

import normlab


def test_all_lists_every_public_name_once_in_order():
    # submodules (imported by the package or by a caller) are not part of the surface
    public = [name for name, value in vars(normlab).items() if not name.startswith("_") and not inspect.ismodule(value)]
    assert normlab.__all__ == sorted(public)
