"""Entry point for ``python -m acx``."""

import sys

from .cli import main

sys.exit(main())
