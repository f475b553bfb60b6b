"""Set-up as a user pays it: a fresh interpreter imports the command line
and loads the given registry, life table and incidence files with the
package's public loaders.  Usage: setup_probe.py [REGISTRY LIFETABLE [INCIDENCE]]"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import netadjust.cli  # noqa: E402,F401
from netadjust.incidence import load_incidence_table  # noqa: E402
from netadjust.io import load_registry  # noqa: E402
from netadjust.lifetable import load_life_table  # noqa: E402

for loader, path in zip((load_registry, load_life_table, load_incidence_table), sys.argv[1:]):
    loader(path)
