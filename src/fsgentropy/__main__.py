"""`python -m fsgentropy ...` runs the entcli command line."""

from .cli import main

raise SystemExit(main())
