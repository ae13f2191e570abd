/**
 * @file
 * Strict positional arguments for the example programs: a malformed
 * argument ends the program with a one-line diagnostic and exit
 * status 2, never a silently misread value ("20k" is not 20).
 */

#ifndef RCACHE_EXAMPLES_EXAMPLE_ARGS_HH
#define RCACHE_EXAMPLES_EXAMPLE_ARGS_HH

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "util/numformat.hh"

namespace rcache
{

/** argv of one example program; argument 1 is the first. */
class ExampleArgs
{
  public:
    ExampleArgs(const char *program, int argc, char **argv)
        : program_(program), argc_(argc), argv_(argv)
    {
    }

    /** Argument @p i, or @p fallback when absent. */
    std::string
    word(int i, const std::string &fallback) const
    {
        return i < argc_ ? argv_[i] : fallback;
    }

    /** Argument @p i as an integer (> 0 unless @p zero_ok), or
     *  @p fallback when absent. */
    std::uint64_t
    count(int i, const std::string &name, std::uint64_t fallback,
          bool zero_ok = false) const
    {
        if (i >= argc_)
            return fallback;
        unsigned long long v = 0;
        if (!parseU64Strict(argv_[i], v) || (v == 0 && !zero_ok))
            fail(name + ": expected a " +
                 (zero_ok ? "non-negative" : "positive") +
                 " integer, got '" + argv_[i] + "'");
        return v;
    }

    /** Argument @p i as a non-negative number, or @p fallback when
     *  absent. */
    double
    number(int i, const std::string &name, double fallback) const
    {
        if (i >= argc_)
            return fallback;
        double v = 0;
        if (!parseDoubleStrict(argv_[i], v) || !(v >= 0))
            fail(name + ": expected a non-negative number, got '" +
                 argv_[i] + "'");
        return v;
    }

    /** Print "<program>: @p msg" and exit 2. */
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        std::cerr << program_ << ": " << msg << '\n';
        std::exit(2);
    }

  private:
    std::string program_;
    int argc_;
    char **argv_;
};

} // namespace rcache

#endif // RCACHE_EXAMPLES_EXAMPLE_ARGS_HH
