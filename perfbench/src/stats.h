/**
 * @file
 * Small, dependency-free pieces of the benchmark that its own tests
 * pin down: percentiles, the Zipf tenant sampler, error accounting,
 * and the metric-name rule.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/**
 * Nearest-rank percentile: the smallest sample with at least
 * ceil(p * n) samples at or below it, for p in (0, 1]. Takes the
 * samples by value because it sorts them.
 */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty()) {
        throw std::invalid_argument("percentile of no samples");
    }
    if (!(p > 0.0 && p <= 1.0)) {
        throw std::invalid_argument("percentile rank outside (0, 1]");
    }
    std::sort(v.begin(), v.end());
    double rank = std::ceil(p * static_cast<double>(v.size()));
    size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

/** Median as the mean of the two middle samples for even counts. */
inline double
median(std::vector<double> v)
{
    if (v.empty()) {
        throw std::invalid_argument("median of no samples");
    }
    std::sort(v.begin(), v.end());
    size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/**
 * Zipf(s) popularity over ranks 0..n-1 (rank 0 most popular), drawn
 * as stratified samples: every @p deckSize consecutive draws hold each
 * rank exactly its largest-remainder share of deckSize, in an order
 * shuffled from the caller's generator. A run's tenant mix then
 * follows the distribution whatever the seed, and only the order
 * varies. The shuffle uses the generator's raw output, not a standard
 * library distribution, so a seed gives the same sequence on every
 * standard library.
 */
class ZipfDeck
{
  public:
    ZipfDeck(size_t n, double s, size_t deckSize)
    {
        if (n == 0 || deckSize == 0) {
            throw std::invalid_argument("empty Zipf deck");
        }
        prob_.resize(n);
        double total = 0;
        for (size_t i = 0; i < n; ++i) {
            prob_[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
            total += prob_[i];
        }
        std::vector<std::pair<double, size_t>> rem;
        size_t dealt = 0;
        counts_.resize(n);
        for (size_t i = 0; i < n; ++i) {
            prob_[i] /= total;
            double share = prob_[i] * static_cast<double>(deckSize);
            counts_[i] = static_cast<size_t>(share);
            dealt += counts_[i];
            rem.emplace_back(share - static_cast<double>(counts_[i]), i);
        }
        std::stable_sort(rem.begin(), rem.end(),
                         [](const auto &a, const auto &b) {
                             return a.first > b.first;
                         });
        for (size_t k = 0; dealt < deckSize; ++k, ++dealt) {
            ++counts_[rem[k % n].second];
        }
        for (size_t i = 0; i < n; ++i) {
            deck_.insert(deck_.end(), counts_[i], i);
        }
        next_ = deck_.size();
    }

    /** Probability of rank @p i under Zipf(s). */
    double probability(size_t i) const { return prob_[i]; }

    /** Draws of rank @p i in every deck. */
    size_t count(size_t i) const { return counts_[i]; }

    size_t
    operator()(std::mt19937_64 &rng)
    {
        if (next_ == deck_.size()) {
            for (size_t i = deck_.size() - 1; i > 0; --i) {
                std::swap(deck_[i], deck_[rng() % (i + 1)]);
            }
            next_ = 0;
        }
        return deck_[next_++];
    }

  private:
    std::vector<double> prob_;
    std::vector<size_t> counts_;
    std::vector<size_t> deck_;
    size_t next_ = 0;
};

/**
 * Outcome counts of one run. Every attempted operation ends in exactly
 * one bucket; error_rate is everything but `correct` over attempted.
 */
struct Outcomes
{
    uint64_t attempted = 0;
    uint64_t correct = 0;
    uint64_t wrong = 0;    ///< answered, but the answer did not verify
    uint64_t failed = 0;   ///< the future carried an exception
    uint64_t rejected = 0; ///< admission control refused it
    uint64_t shed = 0;     ///< dropped past its deadline
    uint64_t timedOut = 0; ///< never answered before the watchdog fired

    uint64_t
    errors() const
    {
        return wrong + failed + rejected + shed + timedOut;
    }

    double
    errorRate() const
    {
        return attempted == 0 ? 0.0
                              : static_cast<double>(errors()) /
                                    static_cast<double>(attempted);
    }

    /** Every attempt is accounted for exactly once. */
    bool
    balanced() const
    {
        return correct + errors() == attempted;
    }
};

/** Metric names printed by the benchmark use only [A-Za-z0-9_.-],
 *  start with a letter or digit, and are at most 64 characters. */
inline bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64) {
        return false;
    }
    if (!std::isalnum(static_cast<unsigned char>(name[0]))) {
        return false;
    }
    for (char c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '.' && c != '-') {
            return false;
        }
    }
    return true;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
