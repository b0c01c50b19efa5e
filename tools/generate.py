"""Write ``src/octalg/_generated.py`` from the derived multiplication table.

    python tools/generate.py

Run it after changing `octalg.table`; the tier-1 tests fail while the
committed module differs from what `octalg.table.generated_source` writes.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    sys.path.insert(0, str(_SRC))
    from octalg.table import generated_source

    (_SRC / "octalg" / "_generated.py").write_bytes(generated_source().encode())


if __name__ == "__main__":
    main()
