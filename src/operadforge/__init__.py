"""operadforge: a symbolic workbench for combinatory algebras.

Submodules:

* ``braids``     -- braid group words, handle reduction, cabling, block sums
* ``terms``      -- lambda terms under planar / linear / braided / cartesian
                    usage disciplines, with braid-annotated exchange
* ``normalize``  -- beta/eta normalization and the equality of normal
                    forms
* ``comb``       -- combinator expressions, bracket abstraction, axiom suites
* ``operad``     -- arities, the internal operad, group actions, trace syntax
* ``acceptance`` -- the end-to-end acceptance battery (also via the CLI)
"""

from . import acceptance, braids, comb, normalize, operad, terms  # noqa: F401

__version__ = "0.1.0"
