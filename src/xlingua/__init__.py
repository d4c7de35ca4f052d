"""Cross-lingual document similarity via multilingual thesaurus indexing.

Documents are mapped to sparse vectors of thesaurus descriptor codes
(language-independent) and compared with cosine similarity, optionally
penalized by a character-length factor and a same-language bias.
"""

from xlingua.thesaurus import Descriptor, Thesaurus, load_thesaurus, save_thesaurus
from xlingua.normalize import (
    LanguageResources,
    NormalizedDocument,
    RawDocument,
    normalize,
    tokenize,
)
from xlingua.profiles import (
    AssociateProfile,
    ProfileSet,
    TrainingConfig,
    idf,
    load_profiles,
    save_profiles,
    train_profiles,
)
from xlingua.assign import DescriptorVector, assign
from xlingua.similarity import (
    DocRecord,
    LengthModel,
    RankedMatch,
    SimilarityOptions,
    dedupe,
    detect_translation,
    detect_translations,
    estimate_length_model,
    find_most_similar,
    score_matrix,
)
from xlingua.errors import ConfigError, ParseError, ValidationError, XlinguaError

__version__ = "0.1.0"
