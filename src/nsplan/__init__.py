"""Knowledge-graph prompted procedural planning.

The pipeline turns a high-level task name into a sequence of admissible
low-level steps: parse the task into entities, pull a local subgraph
from a commonsense knowledge graph, re-weight and prune it against the
task, verbalize it into a knowledge prompt, and drive a language-model
backend one step at a time, grounding every candidate step onto an
admissible set. Counterfactual dataset constructors, automatic metrics,
and a discrete front-door verifier ship alongside.

Each stage is its own module, and every name is imported from the module
that defines it (``from nsplan.kg import ingest``). The package root holds
only ``__version__``, so importing one module loads only what it needs.
"""

__version__ = "0.1.0"
