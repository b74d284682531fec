import android.media.AudioAttributes;

public class Example {
    void ring(android.app.Notification.Builder builder, android.net.Uri uri) {
        if (android.os.Build.VERSION.SDK_INT >= android.os.Build.VERSION_CODES.LOLLIPOP) {
            builder.setSound(uri, makeAttrs(5));
        } else {
            builder.setSound(uri);
        }
    }

    static AudioAttributes makeAttrs(int u) {
        return new Holder(u).attrs(new Usage().offset);
    }

    static class Usage {
        int offset = 0;
    }
}

class Holder {
    private final int usage;

    Holder(int u) {
        usage = u;
    }

    AudioAttributes attrs(int offset) {
        return new AudioAttributes.Builder().setUsage(usage + offset).build();
    }
}
