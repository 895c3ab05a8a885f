"""A worker interpreter of lrdforecast's pool:
``python -m lrdforecast._worker FD``, where FD is the file descriptor of
its end of the channel to the caller (see ``_pool``).

It first sends the realpath of the lrdforecast it imported, then receives
``(fn, args, items)`` tasks and sends ``(True, fn(*args, items))`` or
``(False, exception)`` for each. It exits when the caller closes the
channel. Its standard output is not the channel, so what it prints cannot
corrupt the replies. The package never imports this module.
"""

import os
import pickle
import sys
import traceback
from multiprocessing.connection import Connection

import lrdforecast
from lrdforecast._pool import call_shard


def _sendable(exc: Exception) -> Exception:
    """exc with the worker's traceback as a note, or a RuntimeError with
    its text if exc does not survive pickling."""
    text = "".join(traceback.format_exception(exc))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"in an lrdforecast worker:\n{text}")
    if hasattr(exc, "add_note"):
        exc.add_note(f"in an lrdforecast worker:\n{text}")
    return exc


def main() -> None:
    with Connection(int(sys.argv[1])) as conn:
        try:
            conn.send(os.path.realpath(lrdforecast.__file__))
            while True:
                ok, value = call_shard(*conn.recv())
                conn.send((ok, value if ok else _sendable(value)))
        except (EOFError, ConnectionError):  # the caller is gone
            return


if __name__ == "__main__":
    main()
