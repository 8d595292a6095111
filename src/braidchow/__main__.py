import gc
import sys

# off before the first braidchow import, so loading the command's modules
# runs no collection either (see cli.run)
gc.disable()

from .cli import run  # noqa: E402

sys.exit(run())
