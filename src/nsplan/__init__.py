"""Knowledge-graph prompted procedural planning.

The pipeline turns a high-level task name into a sequence of admissible
low-level steps: parse the task into entities, pull a local subgraph
from a commonsense knowledge graph, re-weight and prune it against the
task, verbalize it into a knowledge prompt, and drive a language-model
backend one step at a time, grounding every candidate step onto an
admissible set. Counterfactual dataset constructors, automatic metrics,
and a discrete front-door verifier ship alongside.
"""

__version__ = "0.1.0"

from .admissible import (
    AdmissibleSet,
    AdmissibleStep,
    build_admissible_set,
    load_admissible_set,
    translate,
    translate_prompt,
)
from .adaption import adapt_weights, select
from .causal import (
    DiscreteSCM,
    ObservationalJoint,
    confounded_example,
    frontdoor_estimate,
    frontdoor_gap,
    random_scm,
    surgery_distribution,
)
from .counterfactual import (
    CounterfactualSample,
    intervene_final_goal,
    intervene_initial_configuration,
    intervene_intermediate_step,
)
from .embeddings import HashEmbedding, RemoteEmbedding, TableEmbedding, cosine, embed
from .entities import Entity, EntitySet, parse_entities
from .errors import ConfigError, TransportError
from .generation import (
    GenerationRequest,
    GenerationResult,
    KnowledgeFollowerGenerator,
    RemoteGenerator,
    ScriptedGenerator,
    next_step,
)
from .kg import KnowledgeGraph, Triplet, ingest, load_graph, sample_subgraph
from .metrics import (
    MetricReport,
    embed_match_f1,
    evaluate_corpus,
    pearson,
    rouge1_f1,
    sentence_bleu,
    wmd,
)
from .planner import PlannerConfig, PlanResult, PlanStep, plan
from .programs import (
    StructuredStep,
    TaskSample,
    load_task_dataset,
    parse_robothow_step,
    render_step,
)
from .verbalize import SymbolicRule, build_knowledge_prompt, verbalize_triplet
