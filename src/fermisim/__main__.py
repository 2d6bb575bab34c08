"""`python -m fermisim` runs the command-line front end."""

import sys

from fermisim.cli import main

if __name__ == "__main__":
    sys.exit(main())
