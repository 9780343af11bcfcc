"""``python -m mrkit``: the ``mrkit`` command line from a checkout."""

import sys

from .cli import main

sys.exit(main())
