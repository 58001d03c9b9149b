#ifndef LLMULATOR_TOKENIZER_TOKENIZER_H
#define LLMULATOR_TOKENIZER_TOKENIZER_H

/**
 * @file
 * Progressive program tokenizer (paper Section 4.1).
 *
 * Two numeric-encoding regimes are supported:
 *  - Progressive (the paper's contribution): a symbol-isolation pass inserts
 *    protective spaces around numeric literals ("-128" -> "- 1 2 8"), then
 *    each decimal digit becomes its own token. Token count grows linearly
 *    with digit length, so any magnitude is representable.
 *  - NoEnc (the ablation / TLP-style baseline): each whole numeric literal
 *    is hashed into a fixed pool of NUM_k tokens, so unseen magnitudes
 *    collide and semantic coherence of numbers is lost — reproducing the
 *    degradation the paper measures (NoEnc columns of Table 3).
 *
 * Identifiers are hashed into a fixed pool of ID_k tokens (a standard
 * hashing-trick vocabulary, since this repo has no BPE corpus); keywords,
 * punctuation and pragma atoms are first-class tokens.
 */

#include <string>
#include <vector>

namespace llmulator {
namespace tokenizer {

/** Tokenizer knobs. */
struct TokenizerConfig
{
    bool progressiveNumbers = true; //!< false = NoEnc ablation
    int idBuckets = 48;             //!< identifier hash-bucket count
    int numBuckets = 32;            //!< NoEnc whole-number bucket count
};

/** Deterministic, vocabulary-stable program tokenizer. */
class Tokenizer
{
  public:
    explicit Tokenizer(const TokenizerConfig& cfg = {});

    /** Total vocabulary size (fixed at construction). */
    int vocabSize() const { return vocabSize_; }

    /** Encode program text into token ids. */
    std::vector<int> encode(const std::string& text) const;

    /** Token id of a single decimal digit (progressive mode building block). */
    int digitToken(int digit) const;

    /** Unknown-character token id. */
    int unkToken() const { return 1; }

    const TokenizerConfig& config() const { return cfg_; }

    /**
     * The symbol-isolation pre-pass: inserts spaces so that signs and
     * digits of numeric literals tokenize independently ("-128" ->
     * "- 1 2 8"). Exposed for tests.
     */
    static std::string isolateNumbers(const std::string& text);

  private:
    TokenizerConfig cfg_;
    int vocabSize_ = 0;
    int digitBase_ = 0; //!< id of digit '0'
    int idBase_ = 0;    //!< id of ID_0
    int numBase_ = 0;   //!< id of NUM_0 (NoEnc mode)

    int lookupWord(const std::string& word) const;
};

} // namespace tokenizer
} // namespace llmulator

#endif // LLMULATOR_TOKENIZER_TOKENIZER_H
