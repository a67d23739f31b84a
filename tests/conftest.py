"""Suite-wide test settings.

When the ``CI`` environment variable is set, the ``hypothesis`` property
tests run under the ``ci`` profile: ``derandomize=True`` draws the same
examples on every run, so a rare draw cannot fail one CI run and pass the
next. Locally they keep drawing fresh examples.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
