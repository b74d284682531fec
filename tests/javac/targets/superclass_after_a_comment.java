import android.app.Notification;
import android.media.AudioAttributes;
import android.net.Uri;

/* the old class Util { was here */
class Q {
    static class Util {
    }
}

class Util {
    AudioAttributes makeAttrs(int u) {
        return null;
    }
}

class R extends Util {
    void ring(Notification.Builder b, Uri u) {
        b.setSound(u);
    }
}
