"""Corpus construction: Java lexing, subtokenization, vocabularies, splits.

The package exports the method records (``RawMethod``, ``MethodExample``),
the ``Vocabulary``, and the steps that build a dataset from Java text:
``extract_methods``, ``tokenize_method``, ``tokenize_snippet``,
``split_examples`` and ``build_vocabulary``.  Everything else is read
from its module.
"""

from .dataset import MethodExample, split_examples, tokenize_method, tokenize_snippet
from .javalex import RawMethod, extract_methods
from .vocabulary import Vocabulary, build_vocabulary

__all__ = [
    "MethodExample",
    "RawMethod",
    "Vocabulary",
    "build_vocabulary",
    "extract_methods",
    "split_examples",
    "tokenize_method",
    "tokenize_snippet",
]
