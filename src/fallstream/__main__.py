import gc
import sys

from .cli import main

# What import built lives as long as the process: frozen, neither a later
# collection nor the interpreter's exit walks it. The collector stays on for
# what main creates.
gc.freeze()
sys.exit(main())
