/**
 * @file
 * Declarative command-line flag registry for the bench binaries.
 *
 * Binaries register typed flags (string, double, uint64, unsigned,
 * bool) and positional arguments against variables they own; parse()
 * fills them in place. The registry generates `--help` output from the
 * registrations, accepts both `--flag VALUE` and `--flag=VALUE`
 * spellings plus short aliases (`-j 4`, `-j4`), and reports unknown flags,
 * missing values, and malformed numbers as structured kBadArgument
 * SimExceptions — which guardedMain turns into the exit-code-2 usage
 * contract. This replaces the old ad-hoc argv scanning, where a typo'd
 * flag was silently ignored.
 */

#ifndef GRIT_HARNESS_CLI_H_
#define GRIT_HARNESS_CLI_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace grit::harness {

/** A typed flag registry; see file comment. */
class Cli
{
  public:
    /**
     * @param program binary name shown in usage ("fig17_overall").
     * @param title   one-line description shown atop --help.
     */
    Cli(std::string program, std::string title);

    /** Register a boolean switch (present = true, takes no value). */
    void flag(const std::string &name, bool *out, const std::string &help,
              const std::string &alias = {});

    /** Register a string-valued flag. */
    void flag(const std::string &name, std::string *out,
              const std::string &value_name, const std::string &help,
              const std::string &alias = {});

    /** Register a double-valued flag. */
    void flag(const std::string &name, double *out,
              const std::string &value_name, const std::string &help,
              const std::string &alias = {});

    /** Register a uint64-valued flag. */
    void flag(const std::string &name, std::uint64_t *out,
              const std::string &value_name, const std::string &help,
              const std::string &alias = {});

    /** Register an unsigned-valued flag. */
    void flag(const std::string &name, unsigned *out,
              const std::string &value_name, const std::string &help,
              const std::string &alias = {});

    /**
     * Register a required positional argument, consumed in
     * registration order. Optional trailing positionals pass
     * @p required = false (all optionals must follow all required).
     */
    void positional(const std::string &name, std::string *out,
                    const std::string &help, bool required = true);

    /**
     * Parse @p argv, filling every registered output variable.
     * @return false when --help/-h was handled (usage printed to
     *         stdout; the caller should exit 0 without running).
     * @throws sim::SimException (kBadArgument) on an unknown flag, a
     *         flag missing its value, a malformed number, or a missing
     *         required positional.
     */
    bool parse(int argc, char **argv);

    /** Render the generated usage text. */
    void printHelp(std::ostream &os) const;

    const std::string &program() const { return program_; }

  private:
    enum class Kind
    {
        kBool,
        kString,
        kDouble,
        kUint64,
        kUnsigned,
    };

    struct Flag
    {
        std::string name;       //!< "--jobs"
        std::string alias;      //!< "-j" or empty
        std::string valueName;  //!< "N" (empty for kBool)
        std::string help;
        Kind kind;
        void *out;
    };

    struct Positional
    {
        std::string name;  //!< "APP"
        std::string help;
        bool required;
        std::string *out;
    };

    const Flag *findFlag(const std::string &token) const;
    void assign(const Flag &flag, const std::string &value) const;

    std::string program_;
    std::string title_;
    std::vector<Flag> flags_;
    std::vector<Positional> positionals_;
};

}  // namespace grit::harness

#endif  // GRIT_HARNESS_CLI_H_
