"""Build a small commonsense graph, zoom in around a task, and turn the
neighborhood into natural-language knowledge lines."""

import io

from nsplan.adaption import adapt_weights, select
from nsplan.embeddings import HashEmbedding
from nsplan.kg import ingest, sample_subgraph
from nsplan.planner import PlannerConfig
from nsplan.verbalize import build_knowledge_prompt

# A graph is just head/relation/tail/weight rows. JSONL keeps this demo
# self-contained; the same ingest() reads ConceptNet TSV dumps.
rows = io.StringIO(
    "\n".join(
        [
            '{"head": "take_a_shower", "relation": "HasPrerequisite", "tail": "take_off_clothes", "weight": 4.0}',
            '{"head": "take_a_shower", "relation": "HasPrerequisite", "tail": "turn_on_water", "weight": 3.1}',
            '{"head": "take_a_shower", "relation": "HasSubevent", "tail": "wash_hair", "weight": 2.8}',
            '{"head": "take_a_shower", "relation": "HasSubevent", "tail": "use_soap", "weight": 2.2}',
            '{"head": "take_a_shower", "relation": "HasLastSubevent", "tail": "dry_off", "weight": 3.4}',
            '{"head": "wash_hair", "relation": "HasPrerequisite", "tail": "wet_hair", "weight": 1.9}',
            '{"head": "use_soap", "relation": "MotivatedByGoal", "tail": "be_clean", "weight": 1.5}',
            '{"head": "dry_off", "relation": "UsedFor", "tail": "towel", "weight": 2.0}',
        ]
    )
)
graph = ingest(rows, fmt="jsonl")
print(f"graph: {graph.node_count} nodes, {graph.edge_count} edges")

# The graph ranks its triplets once, when it is built (weight descending,
# then head, relation, tail), and holds them only as columns in that
# order. Sampling hands over the ranks of the sampled ones as a sorted int
# array; graph.triplet(r) builds the triplet of rank r.
ranks = sample_subgraph(graph, ["take_a_shower"], hops=3)
print(f"subgraph around take_a_shower: {len(ranks)} triplets, ranks {ranks.tolist()}")

# Edge-wise adaption reads the weights and tails of those ranks from the
# graph, nudges each weight by how well the tail concept matches the task
# text and keeps only the triplets that pass the config's edge and cosine
# thresholds (these loose ones keep every triplet). Only the kept ones
# become AdaptedTriplets; then select() ranks the concepts and keeps the
# best-supported ones.
provider = HashEmbedding()
task = "take a shower"
config = PlannerConfig(edge_threshold=0.0, cos_keep_threshold=-1.0)
adapted = adapt_weights(graph, ranks, task, provider, config)
for t in adapted:
    print(f"  {t.head} -{t.relation}-> {t.tail}  {t.weight:.2f} -> {t.adapted_weight:.2f}")

kept = select(adapted, config, task)
print(f"kept {len(kept)} of {len(adapted)} triplets after selection")

prompt = build_knowledge_prompt(kept, max_depth=3)
print()
print("knowledge prompt:")
for line in prompt:
    print(" ", line)
