"""A worker interpreter of lrdforecast's pool:
``python -m lrdforecast._worker FD``, where FD is the file descriptor of
its end of the channel to the caller (see ``_pool``).

It first sends the realpath of the lrdforecast it imported, then receives
``(fn, args, items)`` tasks and sends ``(True, fn(*args, items))`` or
``(False, exception)`` for each, the exception with the worker's traceback
as a note. A reply that cannot be pickled ends the worker, and the caller
computes that block itself. It exits when the caller closes the channel.
Its standard output is not the channel, so what it prints cannot corrupt
the replies. The package never imports this module.
"""

import os
import sys
import traceback
from multiprocessing.connection import Connection

import lrdforecast
from lrdforecast._pool import call_shard


def main() -> None:
    with Connection(int(sys.argv[1])) as conn:
        try:
            conn.send(os.path.realpath(lrdforecast.__file__))
            while True:
                ok, value = call_shard(*conn.recv())
                if not ok:
                    text = "".join(traceback.format_exception(value))
                    value.add_note(f"in an lrdforecast worker:\n{text}")
                conn.send((ok, value))
        except (EOFError, ConnectionError):  # the caller is gone
            return


if __name__ == "__main__":
    main()
