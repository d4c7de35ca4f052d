"""Cross-lingual document similarity via multilingual thesaurus indexing.

Documents are mapped to sparse vectors of thesaurus descriptor codes
(language-independent) and compared with cosine similarity, optionally
penalized by a character-length factor and a same-language bias.
"""

__version__ = "0.1.0"
