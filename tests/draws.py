"""One seeded draw of a random model as its graph, for the tests that check
or count single graphs; the package itself draws whole blocks of seeds as
adjacency rows (``random_models.sample_rows``)."""

from permatch import Digraph, UndirectedGraph
from permatch.random_models import sample_rows


def draw(model, seed):
    """The graph of sample_rows' draw of the model at one seed."""
    kind = Digraph if model.kind == "digraph" else UndirectedGraph
    return kind(model.n, tuple(sample_rows(model, [seed])[0].tolist()))
