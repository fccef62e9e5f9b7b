"""Social-media sentiment scoring and hedonic price regression for the
CryptoPunks market: lexicon scoring, panel construction, OLS/ADF
numerics, and the nested-model study grid."""

from .econometrics import adf_test, ols_fit, pearson_matrix, significance_stars
from .market import (Gender, Sales, SkinTone, attribute_distribution, daily_aggregates,
                     ingest_fx, ingest_gas, ingest_sales, rarity_score)
from .panel import CoverageReport, Panel, build_panel, stationarity_screen, write_panel_csv
from .sentiment import SentimentLexicon, compound_only, load_lexicon
from .series import DailySeries, pct_change
from .study import (ModelSpec, WindowSpec, correlation_precheck, default_windows,
                    model_specs, run_suite, structural_change)
from .tweets import (KeywordFilter, daily_mean_sentiment, ingest_tweets,
                     keyword_frequency, keyword_sentiment)

__version__ = "0.1.0"
