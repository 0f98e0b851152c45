"""``python -m masswell``: the same CLI as the ``masswell`` console script."""

import sys

from . import cli

sys.exit(cli.main())
